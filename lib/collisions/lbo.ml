(* Dougherty / Lenard-Bernstein (Fokker-Planck) collision operator:

     C[f] = nu d/dv . ( (v - u) f + vth^2 df/dv )

   discretized with the same modal, alias-free machinery as the Vlasov
   streaming/acceleration terms, and run on the same sweep body
   (Dg_vlasov.Sweep), one direction per velocity dimension:

   - the drift term is a phase-space flux alpha = nu (u(x) - v) in face
     form: restrict both traces to the face basis, one upwind-penalized
     flux there, lift it into both cells.  Its support is every
     configuration mode plus the linear-in-v_j mode, so the face triple
     folds edge(m_dir, +1): the flux expansion is traced from the cell
     below the face.  alpha is linear in v_j and continuous across the
     face, so that cell's expansion is the upper cell's with the constant
     coefficient shifted by nu dv s0 — no second fill;
   - the diffusion term uses the twice-integrated *recovery* DG scheme (van
     Leer & Nomura; the method of Gkeyll's Fokker-Planck operator, ref [22]
     of the paper): across each velocity face a degree 2p+1 polynomial is
     recovered from the two adjacent cells and supplies the single-valued
     interface value and slope; all tensors still factorize into exact 1D
     Legendre tables (d2trip / dedge / recovery stencils).  Its volume,
     face and boundary terms are the sweep's hooks, with g = nu vth^2(x)
     filled once per pencil of the sweep (one configuration cell).

   Velocity-space boundaries are zero-flux, so particle number is conserved
   to machine precision.  Momentum and energy are conserved up to the
   discretization error of the primitive moments (the fully-corrective
   scheme of Hakim et al. 2020 solves an adjusted linear system; we document
   the simpler variant and test its drift is small).  [rhs] allocates its
   scratch per call, so it is reentrant like the Vlasov solver's. *)

module Layout = Dg_kernels.Layout
module Tensors = Dg_kernels.Tensors
module Sparse = Dg_kernels.Sparse
module Flux = Dg_kernels.Flux
module Recovery = Dg_kernels.Recovery
module Sweep = Dg_vlasov.Sweep
module Modal = Dg_basis.Modal
module Mi = Dg_util.Multi_index
module Grid = Dg_grid.Grid
module Field = Dg_grid.Field
module Moments = Dg_moments.Moments

(* The context of one sweep: g = nu vth^2(x) in the phase basis, and the
   offset of u's block, for the configuration cell of the current pencil. *)
type ctx = { g : float array; mutable u_off : int }

type t = {
  lay : Layout.t;
  nu : float;
  n_floor : float;
  vth2_floor : float;
  prim : Prim_moments.t;
  moments : Moments.t;
  prim_state : Prim_moments.prim;
  sweep : ctx Sweep.dir array; (* one per velocity direction *)
  pencil : ctx -> int array -> unit; (* the sweep's pencil hook *)
}

(* The sweep data of velocity direction [vdir]. *)
let sweep_dir (lay : Layout.t) ~nu ~(ps : Prim_moments.prim) ~vdir =
  let basis = lay.Layout.basis in
  let cdim = lay.Layout.cdim and pdim = lay.Layout.pdim in
  let dir = cdim + vdir in
  let nc = Layout.num_cbasis lay in
  let cfg = lay.Layout.cfg_to_phase in
  let support = Tensors.drift_support lay ~vdir in
  let c0 = cfg.(0) and lin = support.(Array.length support - 1) in
  let s0 = Flux.const_coeff ~dim:pdim and s1 = Flux.linear_coeff ~dim:pdim in
  let dv = (Grid.dx lay.Layout.vgrid).(vdir) in
  (* configuration coefficients scale into the phase basis by sqrt(2)^vdim *)
  let sv = sqrt 2.0 ** float_of_int lay.Layout.vdim in
  let tb = Dg_cas.Legendre.tables (max 1 (Modal.max_1d_degree basis)) in
  (* the bound of |w_m| over the cell, for the penalty speed *)
  let maxval =
    Array.map
      (fun m ->
        Array.fold_left
          (fun acc n -> acc *. tb.Dg_cas.Legendre.maxv.(n))
          1.0
          (Mi.to_array (Modal.index basis m)))
      support
  in
  (* -nu v_j on the constant and linear-in-v_j modes, +nu u_j(x) on the
     configuration modes *)
  let fill ctx (vcenter : float array) alpha =
    for i = 0 to Array.length support - 1 do
      alpha.(support.(i)) <- 0.0
    done;
    alpha.(c0) <- -.nu *. vcenter.(vdir) *. s0;
    alpha.(lin) <- -.nu *. 0.5 *. dv *. s1;
    let ub = ctx.u_off + (vdir * nc) and ud = Field.data ps.Prim_moments.u in
    for a = 0 to nc - 1 do
      alpha.(cfg.(a)) <- alpha.(cfg.(a)) +. (nu *. sv *. ud.(ub + a))
    done
  in
  (* the cell below the face sits dv lower in v_j *)
  let shift = nu *. dv *. s0 in
  let face_alpha alpha falpha =
    for i = 0 to Array.length support - 1 do
      falpha.(support.(i)) <- alpha.(support.(i))
    done;
    falpha.(c0) <- falpha.(c0) +. shift
  in
  (* twice-integrated recovery diffusion over the configuration support *)
  let p = Modal.poly_order basis in
  let rec_ = Recovery.shared p in
  let stencil lfactor nstencil =
    Tensors.surface_stencil basis ~support:cfg ~dir ~lfactor ~nstencil
  in
  let vhi = Tensors.Val Tensors.Hi and vlo = Tensors.Val Tensors.Lo in
  let dhi = Tensors.Der Tensors.Hi and dlo = Tensors.Der Tensors.Lo in
  (* rd_*: w g r'(0), rv_*: w' g r(0), tr_*: w' g f_trace at the domain *)
  let rd_hi_l = stencil vhi rec_.Recovery.rder_l in
  let rd_hi_r = stencil vhi rec_.Recovery.rder_r in
  let rd_lo_l = stencil vlo rec_.Recovery.rder_l in
  let rd_lo_r = stencil vlo rec_.Recovery.rder_r in
  let rv_hi_l = stencil dhi rec_.Recovery.rval_l in
  let rv_hi_r = stencil dhi rec_.Recovery.rval_r in
  let rv_lo_l = stencil dlo rec_.Recovery.rval_l in
  let rv_lo_r = stencil dlo rec_.Recovery.rval_r in
  let tr_hi = stencil dhi (Array.sub tb.Dg_cas.Legendre.edge_hi 0 (p + 1)) in
  let tr_lo = stencil dlo (Array.sub tb.Dg_cas.Legendre.edge_lo 0 (p + 1)) in
  let vol_diff = Tensors.volume_diffusion2 basis ~support:cfg ~dir in
  let d2 = 2.0 /. (Grid.dx lay.Layout.grid).(dir) in
  let dd = d2 *. d2 in
  let ndd = -.dd in
  (* + int g w'' f *)
  let volume { g; _ } fd ~foff od ~ooff =
    Sparse.apply_t3_off vol_diff ~scale:dd g fd ~foff od ~ooff
  in
  (* n . ( w g r'(0) - w' g r(0) ): the left cell sees n = +1, the right
     cell n = -1 *)
  let face { g; _ } fd ~foff_l ~foff_r od ~ooff_l ~ooff_r =
    Sparse.apply_t3_off rd_hi_l ~scale:dd g fd ~foff:foff_l od ~ooff:ooff_l;
    Sparse.apply_t3_off rd_hi_r ~scale:dd g fd ~foff:foff_r od ~ooff:ooff_l;
    Sparse.apply_t3_off rv_hi_l ~scale:ndd g fd ~foff:foff_l od ~ooff:ooff_l;
    Sparse.apply_t3_off rv_hi_r ~scale:ndd g fd ~foff:foff_r od ~ooff:ooff_l;
    Sparse.apply_t3_off rd_lo_l ~scale:ndd g fd ~foff:foff_l od ~ooff:ooff_r;
    Sparse.apply_t3_off rd_lo_r ~scale:ndd g fd ~foff:foff_r od ~ooff:ooff_r;
    Sparse.apply_t3_off rv_lo_l ~scale:dd g fd ~foff:foff_l od ~ooff:ooff_r;
    Sparse.apply_t3_off rv_lo_r ~scale:dd g fd ~foff:foff_r od ~ooff:ooff_r
  in
  (* zero-flux velocity boundaries: g df/dv . n = 0, leaving only the
     -n w' g f_trace term of the twice-integrated form *)
  let boundary { g; _ } side fd ~foff od ~ooff =
    match side with
    | Tensors.Lo -> Sparse.apply_t3_off tr_lo ~scale:dd g fd ~foff od ~ooff
    | Tensors.Hi -> Sparse.apply_t3_off tr_hi ~scale:ndd g fd ~foff od ~ooff
  in
  let dk =
    {
      Tensors.dir;
      support;
      vol = Tensors.volume basis ~support ~dir;
      face = Tensors.face basis ~support ~dir;
    }
  in
  {
    Sweep.dir;
    ops = Sweep.interpreted dk;
    fill;
    speed = Sweep.Bound { support; maxval };
    face_alpha = Some face_alpha;
    volume = Some volume;
    face = Some face;
    boundary = Some boundary;
  }

(* The sweep's pencil hook: g and u's block offset for the configuration
   cell of the pencil. *)
let pencil (lay : Layout.t) ~nu ~(ps : Prim_moments.prim) =
  let nc = Layout.num_cbasis lay and cfg = lay.Layout.cfg_to_phase in
  let sv = sqrt 2.0 ** float_of_int lay.Layout.vdim in
  fun ctx c ->
    let vth2 = ps.Prim_moments.vth2 in
    let gb = Field.unsafe_leading_offset vth2 c and gd = Field.data vth2 in
    for a = 0 to nc - 1 do
      ctx.g.(cfg.(a)) <- nu *. sv *. gd.(gb + a)
    done;
    ctx.u_off <- Field.unsafe_leading_offset ps.Prim_moments.u c

let create ?(n_floor = Bgk.default_n_floor) ?(vth2_floor = Bgk.default_vth2_floor)
    ~nu (lay : Layout.t) =
  if not (n_floor > 0.0 && vth2_floor > 0.0) then
    invalid_arg "Lbo.create: floors must be > 0";
  let prim = Prim_moments.make lay in
  let ps = Prim_moments.alloc_prim prim in
  {
    lay;
    nu;
    n_floor;
    vth2_floor;
    prim;
    moments = Moments.make lay;
    prim_state = ps;
    sweep = Array.init lay.Layout.vdim (fun vdir -> sweep_dir lay ~nu ~ps ~vdir);
    pencil = pencil lay ~nu ~ps;
  }

(* Refresh primitive moments from the current distribution; flagged
   non-realizable cells are floor-clamped (drift toward zero flow,
   diffusion with the floor temperature) and counted, so a degrading run
   shows up in traces instead of feeding garbage to the stencils. *)
let update_prim t ~(f : Field.t) =
  Dg_obs.Obs.span "lbo_prim" (fun () ->
      Prim_moments.compute t.prim ~moments:t.moments ~f ~prim:t.prim_state;
      let clamped =
        Prim_moments.floor_clamp t.prim ~prim:t.prim_state ~n_floor:t.n_floor
          ~vth2_floor:t.vth2_floor
      in
      if clamped > 0 then
        Dg_obs.Obs.count "collisions.nonrealizable_cells" clamped)

let nonrealizable_cells t = t.prim_state.Prim_moments.nonrealizable

(* Accumulate C[f] into [out] (+=).  [update_prim] must have been called
   with the same f (the RK stage state). *)
let rhs t ~(f : Field.t) ~(out : Field.t) =
  Dg_obs.Obs.span "lbo_rhs" (fun () ->
      Sweep.run ~pencil:t.pencil t.lay t.sweep
        { g = Array.make (Layout.num_basis t.lay) 0.0; u_off = 0 }
        ~f ~out)

(* Stable explicit time step for the stiffest (diffusion) part:
   dt <= dv^2 / (2 nu vth2_max (2p+1)^2); a conservative bound. *)
let suggest_dt t =
  let lay = t.lay in
  let p = Modal.poly_order lay.Layout.basis in
  let vth2max = ref 1e-30 in
  let b = Array.make (Layout.num_cbasis lay) 0.0 in
  Grid.iter_cells lay.Layout.cgrid (fun _ c ->
      Field.read_block t.prim_state.Prim_moments.vth2 c b;
      let v = Modal.cell_average lay.Layout.cbasis b in
      if v > !vth2max then vth2max := v);
  let dt = ref infinity in
  Array.iter
    (fun dv ->
      let bound =
        dv *. dv
        /. (2.0 *. t.nu *. !vth2max
           *. float_of_int (((2 * p) + 1) * ((2 * p) + 1)))
      in
      if bound < !dt then dt := bound)
    (Grid.dx lay.Layout.vgrid);
  !dt
