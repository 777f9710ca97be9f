(* The modal, alias-free, matrix-free, quadrature-free Vlasov solver.

   Computes the DG right-hand side df/dt for one species on a phase-space
   grid: streaming volume+surface terms in configuration directions, and
   acceleration q/m (E + v x B) volume+surface terms in velocity directions.
   All coupling tensors are precomputed exactly (dg_kernels.Tensors) and
   each per-direction application is routed through Dg_dispatch.Dispatch:
   generated unrolled kernels (lib/genkernels — the paper's Fig. 1 kernels)
   when the registry covers the direction, the interpreted sparse loops
   otherwise.

   The update is a single fused sweep: per cell and direction the flux
   expansion is built once and feeds the volume term and the cell's lower
   face (both sides of it), with the upper boundary face handled at the
   grid edge — every interior face is visited exactly once.  A solver value
   is immutable after [create]: each [rhs] call allocates its own few
   words of scratch, so concurrent sweeps over one solver are safe.  The
   sweep iterates the grid of the *field* (not the layout), so block-local
   fields of a decomposition reuse the same solver.  There is one sweep
   body: with Dg_obs tracing on it also times its phases and files sweep
   counters, and with tracing off each phase timer is a single branch.  The coupling tensors come from a
   process-wide cache keyed by basis identity, so creates after the first
   for a basis skip the CAS work.

   Boundary treatment: configuration-space ghosts must be synchronized by
   the caller before [rhs]; velocity-space boundaries are zero-flux (the
   surface term is skipped there), which conserves particle number exactly
   provided the distribution is negligible at the velocity-domain edge. *)

module Layout = Dg_kernels.Layout
module Tensors = Dg_kernels.Tensors
module Flux = Dg_kernels.Flux
module Dispatch = Dg_dispatch.Dispatch
module Grid = Dg_grid.Grid
module Field = Dg_grid.Field
module Obs = Dg_obs.Obs

type flux_kind = Central | Upwind

type t = {
  lay : Layout.t;
  flux : flux_kind;
  qm : float; (* charge-to-mass ratio *)
  dirs : Tensors.dir_kernels array; (* interpreted kernel bundle per dim *)
  ops : Dispatch.dir_ops array; (* dispatched applications per dim *)
  accel : Flux.accel_ctx array; (* one projection map per velocity dim *)
  np : int;
  nc : int;
  nface_max : int; (* largest face basis over the directions *)
}

(* Phase timers of one sweep while tracing: slot 0 holds the running mark,
   the others the seconds accumulated by each phase of the sweep. *)
let ph_fill = 1
let ph_vol = 2
let ph_surf = 3

let[@inline] mark tr (ph : float array) = if tr then ph.(0) <- Obs.now ()

let[@inline] tick tr (ph : float array) i =
  if tr then ph.(i) <- ph.(i) +. (Obs.now () -. ph.(0))

(* Process-wide kernel cache.  [Tensors.make_dir] output depends only on
   the basis identity (family, poly order, cdim, vdim) — never on the grid
   (cell counts, extents) — and the sparse tensors are immutable after
   construction, so every solver of one basis shares one bundle array:
   species with their own velocity bounds, the creates of one app, and the
   many same-shaped apps a job server builds.  Building the 2x2v p=2
   bundles costs seconds of CAS work; the cache pays it once per process.
   Entries are shared across domains, hence the mutex. *)
let kcache : (string * int * int * int, Tensors.dir_kernels array) Hashtbl.t =
  Hashtbl.create 8

let kcache_lock = Mutex.create ()
let kcache_hits = Atomic.make 0
let kcache_misses = Atomic.make 0
let kernel_cache_stats () = (Atomic.get kcache_hits, Atomic.get kcache_misses)

let make_dirs (lay : Layout.t) =
  let module Modal = Dg_basis.Modal in
  let basis = lay.Layout.basis in
  let key =
    ( Modal.family_name (Modal.family basis),
      Modal.poly_order basis,
      lay.Layout.cdim,
      lay.Layout.vdim )
  in
  (* Build outside the lock would risk duplicate work but no corruption;
     holding it keeps the first 2x2v p2 build from running 4x on a busy
     server.  Contention is negligible: creates are rare. *)
  Mutex.protect kcache_lock (fun () ->
      match Hashtbl.find_opt kcache key with
      | Some dirs ->
          Atomic.incr kcache_hits;
          Obs.count "solver.kernel_cache_hits" 1;
          dirs
      | None ->
          let dirs =
            Array.init lay.Layout.pdim (fun dir -> Tensors.make_dir lay ~dir)
          in
          Atomic.incr kcache_misses;
          Obs.count "solver.kernel_cache_misses" 1;
          Hashtbl.add kcache key dirs;
          dirs)

let create ?(flux = Upwind) ?(use_kernels = true) ~qm (lay : Layout.t) =
  let pdim = lay.Layout.pdim in
  let dirs = make_dirs lay in
  let ops =
    Array.init pdim (fun dir ->
        Dispatch.make ~use_generated:use_kernels lay ~dir dirs.(dir))
  in
  {
    lay;
    flux;
    qm;
    dirs;
    ops;
    accel = Array.init lay.Layout.vdim (fun vdir -> Flux.make_accel_ctx lay ~vdir ~qm);
    np = Layout.num_basis lay;
    nc = Layout.num_cbasis lay;
    nface_max = Array.fold_left (fun m o -> max m o.Dispatch.nface) 0 ops;
  }

let layout t = t.lay
let qm t = t.qm
let num_basis t = t.np
let flux_kind t = t.flux
let specialized_dirs t = Array.map (fun o -> o.Dispatch.specialized) t.ops

(* Velocity-cell center of velocity dimension [k] for phase coordinates [c]. *)
let vcenter_of t (c : int array) k =
  let vg = t.lay.Layout.vgrid in
  (Grid.lower vg).(k) +. ((float_of_int c.(t.lay.Layout.cdim + k) +. 0.5) *. (Grid.dx vg).(k))

let fill_vcenter t (c : int array) (out : float array) =
  for k = 0 to t.lay.Layout.vdim - 1 do
    out.(k) <- vcenter_of t c k
  done

(* Fill [alpha] with the flux expansion for direction [dir] in the cell with
   phase coordinates [c].  For velocity directions [em] gives the EM
   coefficient field over the configuration grid; [cc] is caller-provided
   scratch of [cdim] ints (no per-cell allocation on the hot path). *)
let fill_alpha t ~dir (c : int array) ~(em : Field.t option) ~(cc : int array)
    (vcenter : float array) (alpha : float array) =
  if Layout.is_config_dir t.lay dir then begin
    let vd = Layout.paired_velocity_dim t.lay dir - t.lay.Layout.cdim in
    let dv = (Grid.dx t.lay.Layout.vgrid).(vd) in
    Flux.streaming_alpha t.lay ~dir ~vcenter:vcenter.(vd) ~dv
      ~support:t.dirs.(dir).Tensors.support alpha
  end
  else begin
    let vdir = dir - t.lay.Layout.cdim in
    match em with
    | None ->
        (* no fields: zero acceleration *)
        Array.iter (fun m -> alpha.(m) <- 0.0) t.dirs.(dir).Tensors.support
    | Some emf ->
        Array.blit c 0 cc 0 t.lay.Layout.cdim;
        let em_off = Field.unsafe_cell_offset emf cc in
        Flux.accel_alpha t.accel.(vdir) ~em:(Field.data emf) ~em_off
          ~ncbasis:t.nc ~vcenter alpha
  end

(* Penalty speed for the face with flux expansion already in [alpha]. *)
let face_speed t ~dir (vcenter : float array) (alpha : float array) =
  match t.flux with
  | Central -> 0.0
  | Upwind ->
      if Layout.is_config_dir t.lay dir then begin
        let vd = Layout.paired_velocity_dim t.lay dir - t.lay.Layout.cdim in
        let dv = (Grid.dx t.lay.Layout.vgrid).(vd) in
        Flux.streaming_max_speed ~vcenter:vcenter.(vd) ~dv
      end
      else Flux.accel_max_speed t.accel.(dir - t.lay.Layout.cdim) alpha

(* File a traced sweep's phase times and counters under the caller's
   current span.  Every cell fills the flux expansion once per active
   direction: each configuration direction, plus the velocity directions
   when there is a field. *)
let file_sweep t ~ncells ~(em : Field.t option) (ph : float array) =
  let cdim = t.lay.Layout.cdim and pdim = t.lay.Layout.pdim in
  let n_fill = ncells * if em = None then cdim else pdim in
  Obs.add_time "fill_alpha" ~seconds:ph.(ph_fill) ~count:n_fill;
  Obs.add_time "volume" ~seconds:ph.(ph_vol) ~count:n_fill;
  Obs.add_time "surface" ~seconds:ph.(ph_surf) ~count:n_fill;
  Obs.count "rhs.sweeps" 1;
  Obs.count "rhs.cells" ncells;
  Obs.count "rhs.fill_alpha" n_fill;
  for dir = 0 to pdim - 1 do
    if dir < cdim || em <> None then
      if t.ops.(dir).Dispatch.specialized then begin
        Obs.count "rhs.celldirs_generated" ncells;
        Obs.count "rhs.mults_generated" (ncells * t.ops.(dir).Dispatch.mults)
      end
      else Obs.count "rhs.celldirs_interpreted" ncells
  done

(* Full DG right-hand side: out := volume + surface contributions, one fused
   sweep.  Per cell and direction the flux expansion is single-valued on the
   lower face (streaming: v is globally linear with the face-tangential
   velocity coordinates shared; acceleration: independent of the face-normal
   velocity coordinate and of the configuration cell it straddles), so one
   [fill_alpha] serves the volume term and both sides of the face.  Each
   face restricts both cells' traces to the face basis, forms one flux G
   there ([face_flux]) and lifts it: out_L -= L_hi G, out_R += L_lo G.  The
   tracing flag is read once per call; when it is off every phase timer is
   one predictable branch. *)
let rhs t ~(f : Field.t) ~(em : Field.t option) ~(out : Field.t) =
  let tr = Obs.enabled () in
  let lay = t.lay in
  let grid = Field.grid f in
  let dx = Grid.dx grid in
  let dvx = Grid.dx lay.Layout.vgrid in
  let cells = Grid.cells grid in
  let pdim = lay.Layout.pdim and cdim = lay.Layout.cdim in
  let fd = Field.data f and od = Field.data out in
  (* per-call scratch: flux expansion, velocity-cell centers, neighbour
     coordinates, configuration coordinates (EM cell lookup), the face
     traces and flux, and the phase timers while tracing *)
  let alpha = Array.make t.np 0.0 and vcenter = Array.make lay.Layout.vdim 0.0 in
  let cl = Array.make pdim 0 and cc = Array.make cdim 0 in
  let face = Array.make (3 * t.nface_max) 0.0 in
  let ph = Array.make (ph_surf + 1) 0.0 in
  Field.fill out 0.0;
  Grid.iter_cells grid (fun _ c ->
      let foff = Field.unsafe_cell_offset f c in
      let ooff = Field.unsafe_cell_offset out c in
      fill_vcenter t c vcenter;
      for dir = 0 to pdim - 1 do
        let is_cfg = dir < cdim in
        (* without fields there is no acceleration: skip velocity dirs *)
        if is_cfg || em <> None then begin
          let ops = t.ops.(dir) in
          let rdx = 1.0 /. dx.(dir) in
          let gof = 2 * ops.Dispatch.nface in
          mark tr ph;
          fill_alpha t ~dir c ~em ~cc vcenter alpha;
          tick tr ph ph_fill;
          (* volume term *)
          mark tr ph;
          (match ops.Dispatch.vol_stream with
          | Some k ->
              (* vd = dir for configuration directions (Layout pairing) *)
              k ~wv:vcenter.(dir) ~dv:dvx.(dir) ~rdx2:(2.0 *. rdx) fd ~foff od
                ~ooff
          | None ->
              Dispatch.apply_t3 ops.Dispatch.vol ~scale:(2.0 *. rdx) alpha fd
                ~foff od ~ooff);
          tick tr ph ph_vol;
          (* lower face of cell [c]: L = c - e_dir (possibly ghost), R = c;
             velocity directions use zero-flux domain boundaries *)
          if not ((not is_cfg) && c.(dir) = 0) then begin
            mark tr ph;
            Array.blit c 0 cl 0 pdim;
            cl.(dir) <- c.(dir) - 1;
            let lam = face_speed t ~dir vcenter alpha in
            Dispatch.face_flux ops ~rdx ~lam alpha fd
              ~foff_l:(Field.unsafe_cell_offset f cl) ~foff_r:foff face;
            (* update the left cell unless it is a ghost *)
            if cl.(dir) >= 0 then
              Dispatch.apply_t2 ops.Dispatch.lift_hi ~scale:(-1.0) face
                ~foff:gof od ~ooff:(Field.unsafe_cell_offset out cl);
            Dispatch.apply_t2 ops.Dispatch.lift_lo ~scale:1.0 face ~foff:gof od
              ~ooff;
            tick tr ph ph_surf
          end;
          (* upper boundary face (config directions only; ghost data):
             L = c (interior), R = ghost *)
          if is_cfg && c.(dir) = cells.(dir) - 1 then begin
            mark tr ph;
            Array.blit c 0 cl 0 pdim;
            cl.(dir) <- c.(dir) + 1;
            let lam = face_speed t ~dir vcenter alpha in
            Dispatch.face_flux ops ~rdx ~lam alpha fd ~foff_l:foff
              ~foff_r:(Field.unsafe_cell_offset f cl) face;
            Dispatch.apply_t2 ops.Dispatch.lift_hi ~scale:(-1.0) face ~foff:gof
              od ~ooff;
            tick tr ph ph_surf
          end
        end
      done);
  if tr then file_sweep t ~ncells:(Grid.num_cells grid) ~em ph

(* Per-direction maximum characteristic speeds, for the CFL condition.
   Streaming speeds depend only on the velocity-domain extent; acceleration
   speeds are bounded by scanning configuration cells with velocity-center
   corner values.  Uses local scratch — safe to call while sweeps are in
   flight elsewhere. *)
let max_speeds t ~(em : Field.t option) =
  let lay = t.lay in
  let speeds = Array.make lay.Layout.pdim 0.0 in
  let vg = lay.Layout.vgrid in
  for d = 0 to lay.Layout.cdim - 1 do
    let vd = d in
    speeds.(d) <-
      Float.max (Float.abs (Grid.lower vg).(vd)) (Float.abs (Grid.upper vg).(vd))
  done;
  (match em with
  | None -> ()
  | Some emf ->
      let nvc = 1 lsl lay.Layout.vdim in
      let vcorner = Array.make lay.Layout.vdim 0.0 in
      let alpha = Array.make t.np 0.0 in
      Grid.iter_cells lay.Layout.cgrid (fun _ cc ->
          let em_off = Field.offset emf cc in
          for corner = 0 to nvc - 1 do
            for k = 0 to lay.Layout.vdim - 1 do
              vcorner.(k) <-
                (if corner land (1 lsl k) = 0 then (Grid.lower vg).(k)
                 else (Grid.upper vg).(k))
            done;
            for vdir = 0 to lay.Layout.vdim - 1 do
              Flux.accel_alpha t.accel.(vdir) ~em:(Field.data emf) ~em_off
                ~ncbasis:t.nc ~vcenter:vcorner alpha;
              let s = Flux.accel_max_speed t.accel.(vdir) alpha in
              let d = lay.Layout.cdim + vdir in
              if s > speeds.(d) then speeds.(d) <- s
            done
          done));
  speeds
