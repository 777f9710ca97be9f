(* Collision-operator tests: weak algebra round-trips, primitive moments,
   Maxwellian fixed points, conservation and relaxation for LBO and BGK. *)

module Layout = Dg_kernels.Layout
module Modal = Dg_basis.Modal
module Grid = Dg_grid.Grid
module Field = Dg_grid.Field
module Moments = Dg_moments.Moments
module Prim = Dg_collisions.Prim_moments
module Lbo = Dg_collisions.Lbo
module Bgk = Dg_collisions.Bgk

(* Phase-space fields as the app builds them: no velocity ghosts, so a
   sweep that reads one raises when VMDG_BOUNDS_CHECK=1. *)
let phase_field (lay : Layout.t) ~ncomp =
  Field.create_phase ~cdim:lay.Layout.cdim lay.Layout.grid ~ncomp

let check_close ?(tol = 1e-9) msg a b =
  if not (Dg_util.Float_cmp.close ~rtol:tol ~atol:tol a b) then
    Alcotest.failf "%s: %.12g <> %.12g" msg a b

let make_lay ?(cdim = 1) ?(cells_c = 4) ?(cells_v = 16) ?(vmax = 6.0) ~vdim ~p
    () =
  let pdim = cdim + vdim in
  let cells = Array.init pdim (fun d -> if d < cdim then cells_c else cells_v) in
  let lower = Array.init pdim (fun d -> if d < cdim then 0.0 else -.vmax) in
  let upper = Array.init pdim (fun d -> if d < cdim then 1.0 else vmax) in
  Layout.make ~cdim ~vdim ~family:Modal.Serendipity ~poly_order:p
    ~grid:(Grid.make ~cells ~lower ~upper)

let maxwellian ~n0 ~u ~vt vel =
  let vdim = Array.length vel in
  let arg = ref 0.0 in
  Array.iteri (fun k v -> let d = v -. u.(k) in arg := !arg +. (d *. d)) vel;
  n0
  /. ((2.0 *. Float.pi *. vt *. vt) ** (float_of_int vdim /. 2.0))
  *. exp (-. !arg /. (2.0 *. vt *. vt))

(* weak_div inverts weak_mul. *)
let test_weak_algebra () =
  let lay = make_lay ~vdim:1 ~p:2 () in
  let prim = Prim.make lay in
  let nc = Layout.num_cbasis lay in
  let rng = Random.State.make [| 3 |] in
  for _ = 1 to 20 do
    (* well-conditioned g: positive with moderate variation *)
    let g = Array.init nc (fun k -> if k = 0 then 2.0 else Random.State.float rng 0.4 -. 0.2) in
    let f = Array.init nc (fun _ -> Random.State.float rng 2.0 -. 1.0) in
    let fg = Array.make nc 0.0 in
    Prim.weak_mul prim f g fg;
    let f' = Prim.weak_div prim g fg in
    Array.iteri (fun k v -> check_close ~tol:1e-8 "weak roundtrip" f.(k) v) f'
  done

(* Primitive moments of a projected Maxwellian recover n, u, vth^2. *)
let test_prim_moments () =
  List.iter
    (fun vdim ->
      let lay = make_lay ~vdim ~p:2 ~cells_v:(if vdim = 1 then 24 else 12) () in
      let np = Layout.num_basis lay in
      let n0 = 1.7 and vt = 1.1 in
      let u = Array.init vdim (fun k -> 0.4 -. (0.2 *. float_of_int k)) in
      let f = phase_field lay ~ncomp:np in
      Dg_app.Vm_app.project_phase lay
        ~f:(fun ~pos:_ ~vel -> maxwellian ~n0 ~u ~vt vel)
        f;
      let prim = Prim.make lay in
      let ps = Prim.alloc_prim prim in
      Prim.compute prim ~moments:(Moments.make lay) ~f ~prim:ps;
      let nc = Layout.num_cbasis lay in
      let cb = lay.Layout.cbasis in
      let block = Array.make nc 0.0 in
      Grid.iter_cells lay.Layout.cgrid (fun _ c ->
          Field.read_block ps.Prim.m0 c block;
          check_close ~tol:1e-5 "n" n0 (Modal.eval_expansion cb block [| 0.3 |]);
          Field.read_block ps.Prim.vth2 c block;
          check_close ~tol:1e-4 "vth2" (vt *. vt)
            (Modal.eval_expansion cb block [| 0.3 |]);
          for k = 0 to vdim - 1 do
            Array.blit (Field.data ps.Prim.u)
              (Field.offset ps.Prim.u c + (k * nc))
              block 0 nc;
            check_close ~tol:1e-4
              (Printf.sprintf "u%d" k)
              u.(k)
              (Modal.eval_expansion cb block [| 0.3 |])
          done))
    [ 1; 2 ]

(* LBO conserves particle number exactly (zero-flux velocity boundaries),
   in every velocity dimensionality. *)
let test_lbo_density_conservation () =
  List.iter
    (fun (vdim, cells_v) ->
      let lay = make_lay ~vdim ~p:2 ~cells_v () in
      let np = Layout.num_basis lay in
      let rng = Random.State.make [| 7 |] in
      let f = phase_field lay ~ncomp:np in
      let u = Array.init vdim (fun k -> 0.5 -. (0.3 *. float_of_int k)) in
      (* positive-ish random distribution *)
      Dg_app.Vm_app.project_phase lay
        ~f:(fun ~pos ~vel ->
          (1.0 +. (0.3 *. sin (2.0 *. Float.pi *. pos.(0))))
          *. maxwellian ~n0:1.0 ~u ~vt:1.0 vel
          *. (1.0 +. (0.05 *. Random.State.float rng 1.0)))
        f;
      let lbo = Lbo.create ~nu:0.8 lay in
      Lbo.update_prim lbo ~f;
      let out = phase_field lay ~ncomp:np in
      Field.fill out 0.0;
      Lbo.rhs lbo ~f ~out;
      let mom = Moments.make lay in
      let dmass = Moments.total_mass mom ~f:out in
      check_close ~tol:1e-10
        (Printf.sprintf "lbo d(mass)/dt (1x%dv)" vdim)
        0.0 dmass)
    [ (1, 16); (2, 8); (3, 5) ]

(* The operator the shared sweep replaced, kept here as the oracle: per
   velocity direction a volume pass, then a pass over the interior faces
   that refills alpha for the left cell and g at every face and applies
   the volume-lifted drift tensors T^{(s_l,s_n)} (edge(m_dir,+1) folded)
   with the four penalty tensors, the eight recovery tensors, and at the
   domain edges the two zero-flux trace tensors. *)
module Tensors = Dg_kernels.Tensors
module Sparse = Dg_kernels.Sparse
module Flux = Dg_kernels.Flux
module Recovery = Dg_kernels.Recovery
module Leg = Dg_cas.Legendre

let two_pass_rhs (lay : Layout.t) ~nu ~(ps : Prim.prim) ~(f : Field.t)
    ~(out : Field.t) =
  let open Tensors in
  let basis = lay.Layout.basis in
  let cdim = lay.Layout.cdim and pdim = lay.Layout.pdim in
  let np = Layout.num_basis lay and nc = Layout.num_cbasis lay in
  let grid = lay.Layout.grid and vg = lay.Layout.vgrid in
  let dx = Grid.dx grid and cells = Grid.cells grid in
  let fd = Field.data f and od = Field.data out in
  let p = Modal.poly_order basis in
  let tb = Leg.tables (max 1 (Modal.max_1d_degree basis)) in
  let rc = Recovery.shared p in
  let cfg = lay.Layout.cfg_to_phase in
  let sv = sqrt 2.0 ** float_of_int lay.Layout.vdim in
  let s0 = Flux.const_coeff ~dim:pdim and s1 = Flux.linear_coeff ~dim:pdim in
  let alpha = Array.make np 0.0 and g = Array.make np 0.0 in
  let maxval k =
    Array.fold_left
      (fun acc n -> acc *. tb.Leg.maxv.(n))
      1.0
      (Dg_util.Multi_index.to_array (Modal.index basis k))
  in
  let off fld c = Field.offset fld c in
  for vdir = 0 to lay.Layout.vdim - 1 do
    let dir = cdim + vdir in
    let support = drift_support lay ~vdir in
    let st lfactor nstencil = surface_stencil basis ~support:cfg ~dir ~lfactor ~nstencil in
    let surf s_l s_n = surface basis ~support ~dir ~s_l ~s_n in
    let pen s_l s_n = penalty basis ~dir ~s_l ~s_n in
    let vol_drift = volume basis ~support ~dir in
    let vol_diff = volume_diffusion2 basis ~support:cfg ~dir in
    let sll = surf Hi Hi and slr = surf Hi Lo and srl = surf Lo Hi
    and srr = surf Lo Lo in
    let pll = pen Hi Hi and plr = pen Hi Lo and prl = pen Lo Hi
    and prr = pen Lo Lo in
    let rd_hi_l = st (Val Hi) rc.Recovery.rder_l
    and rd_hi_r = st (Val Hi) rc.Recovery.rder_r
    and rd_lo_l = st (Val Lo) rc.Recovery.rder_l
    and rd_lo_r = st (Val Lo) rc.Recovery.rder_r
    and rv_hi_l = st (Der Hi) rc.Recovery.rval_l
    and rv_hi_r = st (Der Hi) rc.Recovery.rval_r
    and rv_lo_l = st (Der Lo) rc.Recovery.rval_l
    and rv_lo_r = st (Der Lo) rc.Recovery.rval_r
    and tr_hi = st (Der Hi) (Array.sub tb.Leg.edge_hi 0 (p + 1))
    and tr_lo = st (Der Lo) (Array.sub tb.Leg.edge_lo 0 (p + 1)) in
    let d2 = 2.0 /. dx.(dir) and rdx = 1.0 /. dx.(dir) in
    let dd = d2 *. d2 in
    let dv = (Grid.dx vg).(vdir) in
    let vcenter c = (Grid.lower vg).(vdir) +. ((float_of_int c.(dir) +. 0.5) *. dv) in
    let fill c ~vc =
      let cc = Array.sub c 0 cdim in
      Array.fill alpha 0 np 0.0;
      alpha.(cfg.(0)) <- -.nu *. vc *. s0;
      alpha.(Array.get support (Array.length support - 1)) <- -.nu *. 0.5 *. dv *. s1;
      let ub = off ps.Prim.u cc + (vdir * nc) and gb = off ps.Prim.vth2 cc in
      Array.fill g 0 np 0.0;
      for a = 0 to nc - 1 do
        alpha.(cfg.(a)) <- alpha.(cfg.(a)) +. (nu *. sv *. (Field.data ps.Prim.u).(ub + a));
        g.(cfg.(a)) <- nu *. sv *. (Field.data ps.Prim.vth2).(gb + a)
      done
    in
    Grid.iter_cells grid (fun _ c ->
        fill c ~vc:(vcenter c);
        let fo = off f c and oo = off out c in
        Sparse.apply_t3_off vol_drift ~scale:d2 alpha fd ~foff:fo od ~ooff:oo;
        Sparse.apply_t3_off vol_diff ~scale:dd g fd ~foff:fo od ~ooff:oo);
    Grid.iter_cells grid (fun _ c ->
        if c.(dir) > 0 then begin
          let cl = Array.copy c in
          cl.(dir) <- c.(dir) - 1;
          fill c ~vc:(vcenter cl);
          let lam = ref 0.0 in
          Array.iter (fun m -> lam := !lam +. (Float.abs alpha.(m) *. maxval m)) support;
          let lam = !lam in
          let fl = off f cl and fr = off f c in
          let ol = off out cl and orr = off out c in
          let t3 t ~scale ~foff ~ooff w = Sparse.apply_t3_off t ~scale w fd ~foff od ~ooff in
          let t2 t ~scale ~foff ~ooff = Sparse.apply_t2_off t ~scale fd ~foff od ~ooff in
          t3 sll ~scale:(-.rdx) ~foff:fl ~ooff:ol alpha;
          t3 slr ~scale:(-.rdx) ~foff:fr ~ooff:ol alpha;
          t2 plr ~scale:(lam *. rdx) ~foff:fr ~ooff:ol;
          t2 pll ~scale:(-.lam *. rdx) ~foff:fl ~ooff:ol;
          t3 srl ~scale:rdx ~foff:fl ~ooff:orr alpha;
          t3 srr ~scale:rdx ~foff:fr ~ooff:orr alpha;
          t2 prr ~scale:(-.lam *. rdx) ~foff:fr ~ooff:orr;
          t2 prl ~scale:(lam *. rdx) ~foff:fl ~ooff:orr;
          t3 rd_hi_l ~scale:dd ~foff:fl ~ooff:ol g;
          t3 rd_hi_r ~scale:dd ~foff:fr ~ooff:ol g;
          t3 rv_hi_l ~scale:(-.dd) ~foff:fl ~ooff:ol g;
          t3 rv_hi_r ~scale:(-.dd) ~foff:fr ~ooff:ol g;
          t3 rd_lo_l ~scale:(-.dd) ~foff:fl ~ooff:orr g;
          t3 rd_lo_r ~scale:(-.dd) ~foff:fr ~ooff:orr g;
          t3 rv_lo_l ~scale:dd ~foff:fl ~ooff:orr g;
          t3 rv_lo_r ~scale:dd ~foff:fr ~ooff:orr g
        end;
        fill c ~vc:(vcenter c);
        let fo = off f c and oo = off out c in
        if c.(dir) = 0 then
          Sparse.apply_t3_off tr_lo ~scale:dd g fd ~foff:fo od ~ooff:oo;
        if c.(dir) = cells.(dir) - 1 then
          Sparse.apply_t3_off tr_hi ~scale:(-.dd) g fd ~foff:fo od ~ooff:oo)
  done

(* The shared-sweep LBO against the two-pass oracle, on drifting,
   x-dependent states (non-zero u and vth^2 in every cell). *)
let test_lbo_vs_two_pass () =
  List.iter
    (fun (cdim, vdim, p, cells_c, cells_v) ->
      let lay = make_lay ~cdim ~vdim ~p ~cells_c ~cells_v ~vmax:4.0 () in
      let np = Layout.num_basis lay in
      let f = phase_field lay ~ncomp:np in
      Dg_app.Vm_app.project_phase lay
        ~f:(fun ~pos ~vel ->
          let s = sin (2.0 *. Float.pi *. pos.(0)) in
          let u = Array.init vdim (fun k -> 0.4 +. (0.2 *. s) -. (0.3 *. float_of_int k)) in
          (1.0 +. (0.3 *. s)) *. maxwellian ~n0:1.0 ~u ~vt:(1.0 +. (0.1 *. s)) vel)
        f;
      let nu = 0.8 in
      let lbo = Lbo.create ~nu lay in
      Lbo.update_prim lbo ~f;
      let out = phase_field lay ~ncomp:np in
      Lbo.rhs lbo ~f ~out;
      let prim = Prim.make lay in
      let ps = Prim.alloc_prim prim in
      Prim.compute prim ~moments:(Moments.make lay) ~f ~prim:ps;
      ignore
        (Prim.floor_clamp prim ~prim:ps ~n_floor:Bgk.default_n_floor
           ~vth2_floor:Bgk.default_vth2_floor);
      let ref_rhs = phase_field lay ~ncomp:np in
      two_pass_rhs lay ~nu ~ps ~f ~out:ref_rhs;
      let tag = Printf.sprintf "%dx%dv p%d" cdim vdim p in
      let scale = ref 0.0 in
      Grid.iter_cells lay.Layout.grid (fun _ c ->
          for k = 0 to np - 1 do
            scale := Float.max !scale (Float.abs (Field.get ref_rhs c k))
          done);
      if !scale = 0.0 then Alcotest.failf "%s: oracle is identically zero" tag;
      Grid.iter_cells lay.Layout.grid (fun _ c ->
          for k = 0 to np - 1 do
            let a = Field.get out c k and b = Field.get ref_rhs c k in
            if Float.abs (a -. b) > 1e-12 *. !scale then
              Alcotest.failf "%s: coeff %d: %.17g <> %.17g" tag k a b
          done))
    [
      (1, 1, 1, 4, 8);
      (1, 1, 2, 4, 8);
      (1, 2, 2, 3, 6);
      (2, 2, 1, 3, 5);
      (2, 3, 1, 2, 4);
    ]

(* A Maxwellian (resolved on the grid) is near-stationary under LBO. *)
let test_lbo_fixed_point () =
  let lay = make_lay ~vdim:1 ~p:2 ~cells_v:32 ~vmax:7.0 () in
  let np = Layout.num_basis lay in
  let f = phase_field lay ~ncomp:np in
  Dg_app.Vm_app.project_phase lay
    ~f:(fun ~pos:_ ~vel -> maxwellian ~n0:1.0 ~u:[| 0.0 |] ~vt:1.0 vel)
    f;
  let lbo = Lbo.create ~nu:1.0 lay in
  Lbo.update_prim lbo ~f;
  let out = phase_field lay ~ncomp:np in
  Field.fill out 0.0;
  Lbo.rhs lbo ~f ~out;
  let r = Field.l2_norm out /. Field.l2_norm f in
  (* consistency is O(dv^p); at p=2, 32 cells over [-7,7] this sits under 1e-2 *)
  if r > 2e-2 then Alcotest.failf "LBO residual on Maxwellian too big: %.3e" r

(* Relaxation: a two-beam distribution driven by LBO approaches the
   Maxwellian with the same (n, u, energy); L2 distance must shrink and
   momentum/energy drift must stay small. *)
let test_lbo_relaxation () =
  let lay = make_lay ~cells_c:1 ~vdim:1 ~p:2 ~cells_v:24 ~vmax:6.0 () in
  let np = Layout.num_basis lay in
  let f = phase_field lay ~ncomp:np in
  Dg_app.Vm_app.project_phase lay
    ~f:(fun ~pos:_ ~vel ->
      maxwellian ~n0:0.5 ~u:[| 1.5 |] ~vt:0.6 vel
      +. maxwellian ~n0:0.5 ~u:[| -1.5 |] ~vt:0.6 vel)
    f;
  let nu = 1.0 in
  let lbo = Lbo.create ~nu lay in
  let mom = Moments.make lay in
  let mass0 = Moments.total_mass mom ~f in
  let energy0 = Moments.total_kinetic_energy mom ~mass:1.0 ~f in
  let stepper = Dg_time.Stepper.create ~scheme:Dg_time.Stepper.Ssp_rk3 ~like:[ f ] in
  let rhs ~time:_ state outs =
    match (state, outs) with
    | [ fs ], [ os ] ->
        Field.fill os 0.0;
        Lbo.update_prim lbo ~f:fs;
        Lbo.rhs lbo ~f:fs ~out:os
    | _ -> assert false
  in
  Lbo.update_prim lbo ~f;
  let dt = Float.min 0.02 (Lbo.suggest_dt lbo) in
  (* distance to the equilibrium Maxwellian before/after *)
  let fm = phase_field lay ~ncomp:np in
  Dg_app.Vm_app.project_phase lay
    ~f:(fun ~pos:_ ~vel ->
      (* same n, u=0, energy: vt^2 = u_beam^2 + vt_beam^2 *)
      maxwellian ~n0:1.0 ~u:[| 0.0 |] ~vt:(sqrt ((1.5 *. 1.5) +. 0.36)) vel)
    fm;
  let dist () =
    let d = Field.clone f in
    Field.axpy ~s:(-1.0) ~src:fm ~dst:d;
    Field.l2_norm d
  in
  let d0 = dist () in
  for i = 0 to 149 do
    Dg_time.Stepper.step stepper ~rhs ~time:(float_of_int i *. dt) ~dt [ f ]
  done;
  let d1 = dist () in
  if d1 > 0.55 *. d0 then
    Alcotest.failf "LBO relaxation too slow: %.4e -> %.4e (nu t = %g)" d0 d1
      (nu *. dt *. 150.0);
  let mass1 = Moments.total_mass mom ~f in
  check_close ~tol:1e-8 "mass conserved" mass0 mass1;
  let energy1 = Moments.total_kinetic_energy mom ~mass:1.0 ~f in
  if Float.abs (energy1 -. energy0) /. energy0 > 0.05 then
    Alcotest.failf "LBO energy drift too large: %.6e -> %.6e" energy0 energy1

(* BGK: a Maxwellian is a fixed point up to projection error, and the
   operator drives a double-beam toward it. *)
let test_bgk () =
  let lay = make_lay ~cells_c:1 ~vdim:1 ~p:2 ~cells_v:24 ~vmax:6.0 () in
  let np = Layout.num_basis lay in
  let f = phase_field lay ~ncomp:np in
  Dg_app.Vm_app.project_phase lay
    ~f:(fun ~pos:_ ~vel -> maxwellian ~n0:1.3 ~u:[| 0.4 |] ~vt:0.9 vel)
    f;
  let bgk = Bgk.create ~nu:1.0 lay in
  Bgk.update_prim bgk ~f;
  let out = phase_field lay ~ncomp:np in
  Field.fill out 0.0;
  Bgk.rhs bgk ~f ~out;
  let r = Field.l2_norm out /. Field.l2_norm f in
  if r > 1e-3 then Alcotest.failf "BGK residual on Maxwellian: %.3e" r;
  (* relaxation step shrinks distance to equilibrium *)
  Dg_app.Vm_app.project_phase lay
    ~f:(fun ~pos:_ ~vel ->
      maxwellian ~n0:0.5 ~u:[| 1.0 |] ~vt:0.5 vel
      +. maxwellian ~n0:0.5 ~u:[| -1.0 |] ~vt:0.5 vel)
    f;
  Bgk.update_prim bgk ~f;
  Field.fill out 0.0;
  Bgk.rhs bgk ~f ~out;
  (* Euler step with small dt must reduce the BGK residual norm *)
  let res0 = Field.l2_norm out in
  Field.axpy ~s:0.2 ~src:out ~dst:f;
  Bgk.update_prim bgk ~f;
  Field.fill out 0.0;
  Bgk.rhs bgk ~f ~out;
  let res1 = Field.l2_norm out in
  if res1 >= res0 then Alcotest.failf "BGK residual grew: %.4e -> %.4e" res0 res1

(* Realizability: a dead (negative-density) region must be flagged, floor-
   clamped to a flat realizable profile, and still feed a finite BGK rhs —
   never a silent zero/NaN Maxwellian. *)
let test_nonrealizable_cells_clamped () =
  let lay = make_lay ~vdim:1 ~p:2 () in
  let np = Layout.num_basis lay in
  let f = phase_field lay ~ncomp:np in
  Dg_app.Vm_app.project_phase lay
    ~f:(fun ~pos ~vel ->
      if pos.(0) < 0.5 then maxwellian ~n0:1.0 ~u:[| 0.0 |] ~vt:1.0 vel
      else -1e-3)
    f;
  let bgk = Bgk.create ~nu:1.0 lay in
  Bgk.update_prim bgk ~f;
  let flagged = Bgk.nonrealizable_cells bgk in
  Alcotest.(check bool) "dead cells flagged" true (flagged > 0);
  Alcotest.(check bool) "live cells not flagged" true
    (flagged < Grid.num_cells lay.Layout.cgrid);
  Alcotest.(check bool) "first (healthy) cell unflagged" false
    (Prim.flagged bgk.Bgk.prim_state 0);
  Alcotest.(check bool) "last (dead) cell flagged" true
    (Prim.flagged bgk.Bgk.prim_state (Grid.num_cells lay.Layout.cgrid - 1));
  let out = phase_field lay ~ncomp:np in
  Field.fill out 0.0;
  Bgk.rhs bgk ~f ~out;
  let finite = ref true in
  Array.iter
    (fun x -> if not (Float.is_finite x) then finite := false)
    (Field.data out);
  Alcotest.(check bool) "rhs finite everywhere" true !finite

let test_maxwellian_floors () =
  let clamped = ref false in
  (* evaluate at the flow velocity: away from it the floored vth2 makes
     the exponential underflow to 0, which is fine but vacuous *)
  let v =
    Bgk.maxwellian ~clamped ~vdim:1 ~n:(-1.0) ~u:[| 0.0 |] ~vth2:(-2.0)
      [| 0.0 |]
  in
  Alcotest.(check bool) "finite on garbage input" true (Float.is_finite v);
  Alcotest.(check bool) "positive on garbage input" true (v > 0.0);
  Alcotest.(check bool) "floor engagement reported" true !clamped;
  let clamped' = ref false in
  let v' =
    Bgk.maxwellian ~clamped:clamped' ~vdim:1 ~n:2.0 ~u:[| 0.1 |] ~vth2:1.0
      [| 0.3 |]
  in
  Alcotest.(check bool) "healthy input not clamped" false !clamped';
  check_close "matches reference maxwellian"
    (maxwellian ~n0:2.0 ~u:[| 0.1 |] ~vt:1.0 [| 0.3 |])
    v'

let () =
  Alcotest.run "dg_collisions"
    [
      ( "prim",
        [
          Alcotest.test_case "weak mul/div roundtrip" `Quick test_weak_algebra;
          Alcotest.test_case "primitive moments" `Quick test_prim_moments;
        ] );
      ( "lbo",
        [
          Alcotest.test_case "density conservation" `Quick test_lbo_density_conservation;
          Alcotest.test_case "shared sweep == two-pass operator" `Quick
            test_lbo_vs_two_pass;
          Alcotest.test_case "maxwellian fixed point" `Quick test_lbo_fixed_point;
          Alcotest.test_case "relaxation" `Slow test_lbo_relaxation;
        ] );
      ("bgk", [ Alcotest.test_case "fixed point + relaxation" `Quick test_bgk ]);
      ( "realizability",
        [
          Alcotest.test_case "dead cells flagged + clamped" `Quick
            test_nonrealizable_cells_clamped;
          Alcotest.test_case "maxwellian floors" `Quick test_maxwellian_floors;
        ] );
    ]
