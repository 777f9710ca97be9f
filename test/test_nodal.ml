(* The nodal baseline and the modal scheme discretize the same polynomial
   space when the modal basis is Tensor; with the same (central) numerical
   flux and exact/over-integrated quadrature both are alias-free, so their
   right-hand sides must agree to rounding error through the Vandermonde map
   f_nodal = V f_modal.  This pins down both solvers against each other. *)

module Layout = Dg_kernels.Layout
module Modal = Dg_basis.Modal
module Grid = Dg_grid.Grid
module Field = Dg_grid.Field
module Mat = Dg_linalg.Mat
module Nodal = Dg_nodal.Nodal_solver
module Solver = Dg_vlasov.Solver

(* Phase-space fields as the app builds them: no velocity ghosts, so a
   sweep that reads one raises when VMDG_BOUNDS_CHECK=1. *)
let phase_field (lay : Layout.t) ~ncomp =
  Field.create_phase ~cdim:lay.Layout.cdim lay.Layout.grid ~ncomp

let make_lay ~cdim ~vdim ~p =
  let pdim = cdim + vdim in
  let cells = Array.init pdim (fun d -> if d < cdim then 3 else 4) in
  let lower = Array.init pdim (fun d -> if d < cdim then 0.0 else -2.0) in
  let upper = Array.init pdim (fun d -> if d < cdim then 6.28 else 2.0) in
  let grid = Grid.make ~cells ~lower ~upper in
  Layout.make ~cdim ~vdim ~family:Modal.Tensor ~poly_order:p ~grid

let phase_bcs (lay : Layout.t) =
  Array.init lay.Layout.pdim (fun d ->
      if d < lay.Layout.cdim then (Field.Periodic, Field.Periodic)
      else (Field.Zero, Field.Zero))

let nodal_equiv ~cdim ~vdim ~p ~with_em () =
  let lay = make_lay ~cdim ~vdim ~p in
  let np_modal = Layout.num_basis lay in
  let qm = -1.25 in
  let modal = Solver.create ~flux:Solver.Central ~qm lay in
  let nodal = Nodal.create ~flux:Nodal.Central ~qm lay in
  let v = Nodal.vandermonde nodal in
  let np_nodal = Nodal.num_nodes nodal in
  Alcotest.(check int) "same space dimension" np_modal np_nodal;
  (* random modal state; map to nodal *)
  let rng = Random.State.make [| 21 |] in
  let fm = phase_field lay ~ncomp:np_modal in
  let fn = phase_field lay ~ncomp:np_nodal in
  let mb = Array.make np_modal 0.0 and nb = Array.make np_nodal 0.0 in
  Grid.iter_cells lay.Layout.grid (fun _ c ->
      for k = 0 to np_modal - 1 do
        mb.(k) <- Random.State.float rng 2.0 -. 1.0
      done;
      Field.write_block fm c mb;
      Mat.matvec v mb nb;
      Field.write_block fn c nb);
  let bcs = phase_bcs lay in
  Field.sync_ghosts fm bcs;
  Field.sync_ghosts fn bcs;
  let em =
    if with_em then begin
      let nc = Layout.num_cbasis lay in
      let e = Field.create lay.Layout.cgrid ~ncomp:(8 * nc) in
      Grid.iter_cells lay.Layout.cgrid (fun _ c ->
          for k = 0 to (6 * nc) - 1 do
            Field.set e c k (Random.State.float rng 2.0 -. 1.0)
          done);
      Field.sync_ghosts e (Array.make cdim (Field.Periodic, Field.Periodic));
      Some e
    end
    else None
  in
  let om = phase_field lay ~ncomp:np_modal in
  let on = phase_field lay ~ncomp:np_nodal in
  Solver.rhs modal ~f:fm ~em ~out:om;
  Nodal.rhs nodal ~f:fn ~em ~out:on;
  (* compare V * rhs_modal with rhs_nodal cellwise *)
  let maxdiff = ref 0.0 and scale = ref 0.0 in
  let ob = Array.make np_modal 0.0 and vb = Array.make np_nodal 0.0 in
  let nbk = Array.make np_nodal 0.0 in
  Grid.iter_cells lay.Layout.grid (fun _ c ->
      Field.read_block om c ob;
      Mat.matvec v ob vb;
      Field.read_block on c nbk;
      for k = 0 to np_nodal - 1 do
        maxdiff := Float.max !maxdiff (Float.abs (vb.(k) -. nbk.(k)));
        scale := Float.max !scale (Float.abs vb.(k))
      done);
  if !maxdiff > 1e-9 *. Float.max 1.0 !scale then
    Alcotest.failf "nodal <> modal: maxdiff %.3e (scale %.3e)" !maxdiff !scale

let test_equiv_streaming_1x1v () = nodal_equiv ~cdim:1 ~vdim:1 ~p:2 ~with_em:false ()
let test_equiv_em_1x1v () = nodal_equiv ~cdim:1 ~vdim:1 ~p:1 ~with_em:true ()
let test_equiv_em_1x2v () = nodal_equiv ~cdim:1 ~vdim:2 ~p:1 ~with_em:true ()
let test_equiv_em_1x1v_p2 () = nodal_equiv ~cdim:1 ~vdim:1 ~p:2 ~with_em:true ()

(* Nodal current matches the modal moment computation through V. *)
let test_current_equivalence () =
  let lay = make_lay ~cdim:1 ~vdim:2 ~p:2 in
  let np = Layout.num_basis lay in
  let nodal = Nodal.create ~flux:Nodal.Central ~qm:1.0 lay in
  let v = Nodal.vandermonde nodal in
  let rng = Random.State.make [| 33 |] in
  let fm = phase_field lay ~ncomp:np in
  let fn = phase_field lay ~ncomp:np in
  let mb = Array.make np 0.0 and nb = Array.make np 0.0 in
  Grid.iter_cells lay.Layout.grid (fun _ c ->
      for k = 0 to np - 1 do
        mb.(k) <- Random.State.float rng 2.0 -. 1.0
      done;
      Field.write_block fm c mb;
      Mat.matvec v mb nb;
      Field.write_block fn c nb);
  let nc = Layout.num_cbasis lay in
  let jm = Field.create lay.Layout.cgrid ~ncomp:(3 * nc) in
  let jn = Field.create lay.Layout.cgrid ~ncomp:(3 * nc) in
  let mom = Dg_moments.Moments.make lay in
  let charge = -2.0 in
  Dg_moments.Moments.accumulate_current mom ~charge ~f:fm ~out:jm;
  Nodal.accumulate_current nodal ~charge ~f:fn ~out:jn;
  Grid.iter_cells lay.Layout.cgrid (fun _ c ->
      for k = 0 to (3 * nc) - 1 do
        let a = Field.get jm c k and b = Field.get jn c k in
        if not (Dg_util.Float_cmp.close ~rtol:1e-9 ~atol:1e-9 a b) then
          Alcotest.failf "current mismatch k=%d: %.12g <> %.12g" k a b
      done)

let () =
  Alcotest.run "dg_nodal"
    [
      ( "equivalence",
        [
          Alcotest.test_case "streaming 1x1v p=2" `Quick test_equiv_streaming_1x1v;
          Alcotest.test_case "vlasov-maxwell 1x1v p=1" `Quick test_equiv_em_1x1v;
          Alcotest.test_case "vlasov-maxwell 1x2v p=1" `Quick test_equiv_em_1x2v;
          Alcotest.test_case "vlasov-maxwell 1x1v p=2" `Quick test_equiv_em_1x1v_p2;
          Alcotest.test_case "current moment" `Quick test_current_equivalence;
        ] );
    ]
