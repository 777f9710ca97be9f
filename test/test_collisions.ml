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

let make_lay ?(cells_c = 4) ?(cells_v = 16) ?(vmax = 6.0) ~vdim ~p () =
  let cdim = 1 in
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

(* LBO conserves particle number exactly (zero-flux velocity boundaries). *)
let test_lbo_density_conservation () =
  let lay = make_lay ~vdim:1 ~p:2 () in
  let np = Layout.num_basis lay in
  let rng = Random.State.make [| 7 |] in
  let f = phase_field lay ~ncomp:np in
  (* positive-ish random distribution *)
  Dg_app.Vm_app.project_phase lay
    ~f:(fun ~pos ~vel ->
      (1.0 +. (0.3 *. sin (2.0 *. Float.pi *. pos.(0))))
      *. maxwellian ~n0:1.0 ~u:[| 0.5 |] ~vt:1.0 vel
      *. (1.0 +. (0.05 *. Random.State.float rng 1.0)))
    f;
  let lbo = Lbo.create ~nu:0.8 lay in
  Lbo.update_prim lbo ~f;
  let out = phase_field lay ~ncomp:np in
  Field.fill out 0.0;
  Lbo.rhs lbo ~f ~out;
  let mom = Moments.make lay in
  let dmass = Moments.total_mass mom ~f:out in
  check_close ~tol:1e-10 "lbo d(mass)/dt" 0.0 dmass

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
