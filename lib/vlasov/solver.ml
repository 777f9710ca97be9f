(* The modal, alias-free, matrix-free, quadrature-free Vlasov solver.

   Computes the DG right-hand side df/dt for one species on a phase-space
   grid: streaming volume+surface terms in configuration directions, and
   acceleration q/m (E + v x B) volume+surface terms in velocity directions.
   All coupling tensors are precomputed exactly (dg_kernels.Tensors) and
   each per-direction application is selected once by Sweep.select:
   generated unrolled kernels (lib/genkernels — the paper's Fig. 1 kernels)
   when the registry covers the direction, the interpreted sparse loops
   otherwise.

   The update is one pass of the shared hyperbolic sweep (Sweep), which
   the Dougherty collision drift runs on too: per cell and direction the
   flux expansion is built once and feeds the volume term and the cell's
   lower face (both sides of it), with the upper boundary face handled at
   the grid edge — every interior face is visited exactly once.  The
   sweep walks pencils of cells along the last velocity dimension; the
   EM block offset, fixed along a pencil, is read once per pencil into
   the call's context, and the streaming constants once per direction at
   [create].  A solver value is immutable after [create]: each [rhs] call
   allocates its own few words of scratch, whatever the grid, so
   concurrent sweeps over one solver are safe.  The sweep walks the grid
   of the *field* (not the layout), so block-local fields of a
   decomposition reuse the same solver.  With
   Dg_obs tracing on the same sweep body also times its phases, which
   [rhs] files with its sweep counters; with tracing off each phase timer
   is a single branch.  The coupling tensors come from a process-wide
   cache keyed by basis identity, so creates after the first for a basis
   skip the CAS work.

   Boundary treatment: configuration-space ghosts must be synchronized by
   the caller before [rhs]; velocity-space boundaries are zero-flux (the
   surface term is skipped there), which conserves particle number exactly
   provided the distribution is negligible at the velocity-domain edge. *)

module Layout = Dg_kernels.Layout
module Tensors = Dg_kernels.Tensors
module Flux = Dg_kernels.Flux
module Grid = Dg_grid.Grid
module Field = Dg_grid.Field
module Obs = Dg_obs.Obs

type flux_kind = Central | Upwind

(* The context of one sweep: the EM field, and the offset of its block
   for the configuration cell of the current pencil. *)
type ctx = { em : Field.t option; mutable em_off : int }

type t = {
  lay : Layout.t;
  flux : flux_kind;
  qm : float; (* charge-to-mass ratio *)
  accel : Flux.accel_ctx array; (* one projection map per velocity dim *)
  sweep : ctx Sweep.dir array; (* every direction *)
  stream : ctx Sweep.dir array; (* configuration directions *)
}

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

(* The sweep data of one direction.  Streaming: alpha = v_d has two
   coefficients fixed by the paired velocity cell.  Acceleration: the
   projection map of q/m (E + v x B) over the configuration cell's EM
   block, whose offset the sweep's pencil hook ([em_pencil]) sets in the
   context. *)
let sweep_dir (lay : Layout.t) ~flux ~accel (dk : Tensors.dir_kernels) ops :
    ctx Sweep.dir =
  let dir = dk.Tensors.dir and support = dk.Tensors.support in
  let central = flux = Central in
  let fill, speed =
    if Layout.is_config_dir lay dir then begin
      let vd = Layout.paired_velocity_dim lay dir - lay.Layout.cdim in
      let dv = (Grid.dx lay.Layout.vgrid).(vd) in
      let s = Flux.make_stream_ctx lay ~dir ~dv in
      ( (fun _ vcenter alpha -> Flux.streaming_alpha s ~vcenter alpha),
        if central then Sweep.No_penalty else Sweep.Stream_speed s )
    end
    else begin
      let actx = accel.(dir - lay.Layout.cdim) in
      let nc = Layout.num_cbasis lay in
      ( (fun ctx vcenter alpha ->
          match ctx.em with
          | None ->
              (* no fields: zero acceleration *)
              Array.iter (fun m -> alpha.(m) <- 0.0) support
          | Some emf ->
              Flux.accel_alpha actx ~em:(Field.data emf) ~em_off:ctx.em_off
                ~ncbasis:nc ~vcenter alpha),
        if central then Sweep.No_penalty
        else
          Sweep.Bound
            {
              support = actx.Flux.support;
              maxval =
                Array.map (fun m -> actx.Flux.maxval.(m)) actx.Flux.support;
            } )
    end
  in
  {
    Sweep.dir;
    ops;
    fill;
    speed;
    face_alpha = None;
    volume = None;
    face = None;
    boundary = None;
  }

let create ?(flux = Upwind) ?(use_kernels = true) ~qm (lay : Layout.t) =
  let accel =
    Array.init lay.Layout.vdim (fun vdir -> Flux.make_accel_ctx lay ~vdir ~qm)
  in
  let sweep =
    Array.map
      (fun dk ->
        sweep_dir lay ~flux ~accel dk
          (Sweep.select ~use_generated:use_kernels lay dk))
      (make_dirs lay)
  in
  {
    lay;
    flux;
    qm;
    accel;
    sweep;
    stream = Array.sub sweep 0 lay.Layout.cdim;
  }

let layout t = t.lay
let qm t = t.qm
let num_basis t = Layout.num_basis t.lay
let flux_kind t = t.flux
let specialized_dirs t =
  Array.map (fun d -> Option.is_some d.Sweep.ops.Sweep.mults) t.sweep

(* File a traced sweep's phase times and counters under the caller's
   current span.  Every cell fills the flux expansion once per active
   direction: each configuration direction, plus the velocity directions
   when there is a field. *)
let file_sweep t ~ncells ~(em : Field.t option) (tm : Sweep.timers) =
  let cdim = t.lay.Layout.cdim and pdim = t.lay.Layout.pdim in
  let n_fill = ncells * if em = None then cdim else pdim in
  Obs.add_time "fill_alpha" ~seconds:tm.Sweep.fill_s ~count:n_fill;
  Obs.add_time "volume" ~seconds:tm.Sweep.volume_s ~count:n_fill;
  Obs.add_time "surface" ~seconds:tm.Sweep.surface_s ~count:n_fill;
  Obs.count "rhs.sweeps" 1;
  Obs.count "rhs.cells" ncells;
  Obs.count "rhs.fill_alpha" n_fill;
  for dir = 0 to pdim - 1 do
    if dir < cdim || em <> None then
      match t.sweep.(dir).Sweep.ops.Sweep.mults with
      | Some mults ->
          Obs.count "rhs.celldirs_generated" ncells;
          Obs.count "rhs.mults_generated" (ncells * mults)
      | None -> Obs.count "rhs.celldirs_interpreted" ncells
  done

(* Full DG right-hand side: out := volume + surface contributions, one
   pass of the shared sweep.  Per cell and direction the flux expansion is
   single-valued on the lower face (streaming: v is globally linear with
   the face-tangential velocity coordinates shared; acceleration:
   independent of the face-normal velocity coordinate and of the
   configuration cell it straddles), so one fill serves the volume term
   and both sides of the face.  Without fields there is no acceleration
   and only the configuration directions are swept.  The tracing flag is
   read once per call; when it is off every phase timer is one
   predictable branch. *)
let em_pencil ctx c =
  match ctx.em with
  | Some emf -> ctx.em_off <- Field.unsafe_leading_offset emf c
  | None -> ()

let rhs t ~(f : Field.t) ~(em : Field.t option) ~(out : Field.t) =
  let timers = if Obs.enabled () then Some (Sweep.timers ()) else None in
  Field.fill out 0.0;
  Sweep.run ?timers ~pencil:em_pencil t.lay
    (if em = None then t.stream else t.sweep)
    { em; em_off = 0 } ~f ~out;
  Option.iter (file_sweep t ~ncells:(Grid.num_cells (Field.grid f)) ~em) timers

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
      let alpha = Array.make (Layout.num_basis lay) 0.0 in
      let nc = Layout.num_cbasis lay in
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
                ~ncbasis:nc ~vcenter:vcorner alpha;
              let s = Flux.accel_max_speed t.accel.(vdir) alpha in
              let d = lay.Layout.cdim + vdir in
              if s > speeds.(d) then speeds.(d) <- s
            done
          done));
  speeds
