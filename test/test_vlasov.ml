(* Solver-level tests of the modal Vlasov update: conservation laws and the
   discrete field-particle energy-exchange identity (paper Eq. 9), which
   holds only because every integral is evaluated exactly (alias-free). *)

module Layout = Dg_kernels.Layout
module Modal = Dg_basis.Modal
module Grid = Dg_grid.Grid
module Field = Dg_grid.Field
module Solver = Dg_vlasov.Solver
module Moments = Dg_moments.Moments

(* Phase-space fields as the app builds them: no velocity ghosts, so a
   sweep that reads one raises when VMDG_BOUNDS_CHECK=1. *)
let phase_field (lay : Layout.t) ~ncomp =
  Field.create_phase ~cdim:lay.Layout.cdim lay.Layout.grid ~ncomp

let check_close ?(tol = 1e-10) msg a b =
  if not (Dg_util.Float_cmp.close ~rtol:tol ~atol:tol a b) then
    Alcotest.failf "%s: %.17g <> %.17g" msg a b

let make_lay ~cdim ~vdim ~family ~p ~cells_c ~cells_v ~vmax =
  let pdim = cdim + vdim in
  let cells =
    Array.init pdim (fun d -> if d < cdim then cells_c else cells_v)
  in
  let lower = Array.init pdim (fun d -> if d < cdim then 0.0 else -.vmax) in
  let upper =
    Array.init pdim (fun d -> if d < cdim then 2.0 *. Float.pi else vmax)
  in
  let grid = Grid.make ~cells ~lower ~upper in
  Layout.make ~cdim ~vdim ~family ~poly_order:p ~grid

let phase_bcs (lay : Layout.t) =
  Array.init lay.Layout.pdim (fun d ->
      if d < lay.Layout.cdim then (Field.Periodic, Field.Periodic)
      else (Field.Zero, Field.Zero))

(* Random distribution supported away from the velocity boundary (so the
   zero-flux velocity BC introduces no boundary terms). *)
let random_f ?(seed = 5) (lay : Layout.t) =
  let rng = Random.State.make [| seed |] in
  let np = Layout.num_basis lay in
  let f = phase_field lay ~ncomp:np in
  let interior = ref true in
  Grid.iter_cells lay.Layout.grid (fun _ c ->
      interior := true;
      for d = lay.Layout.cdim to lay.Layout.pdim - 1 do
        let n = (Grid.cells lay.Layout.grid).(d) in
        if c.(d) = 0 || c.(d) = n - 1 then interior := false
      done;
      if !interior then
        for k = 0 to np - 1 do
          Field.set f c k (Random.State.float rng 2.0 -. 1.0)
        done);
  f

let random_em ?(seed = 9) (lay : Layout.t) =
  let rng = Random.State.make [| seed |] in
  let nc = Layout.num_cbasis lay in
  let em = Field.create lay.Layout.cgrid ~ncomp:(8 * nc) in
  Grid.iter_cells lay.Layout.cgrid (fun _ c ->
      for k = 0 to (6 * nc) - 1 do
        Field.set em c k (Random.State.float rng 2.0 -. 1.0)
      done);
  em

(* A spatially uniform distribution is an exact steady state of streaming
   (no fields): rhs must vanish identically. *)
let test_uniform_steady () =
  let lay = make_lay ~cdim:1 ~vdim:1 ~family:Modal.Serendipity ~p:2 ~cells_c:4
      ~cells_v:6 ~vmax:3.0 in
  let np = Layout.num_basis lay in
  let solver = Solver.create ~flux:Solver.Upwind ~qm:1.0 lay in
  let f = phase_field lay ~ncomp:np in
  (* f varying in v only: coefficients on velocity-only modes *)
  Dg_app.Vm_app.project_phase lay
    ~f:(fun ~pos:_ ~vel -> exp (-.(vel.(0) *. vel.(0))))
    f;
  Field.sync_ghosts f (phase_bcs lay);
  let out = phase_field lay ~ncomp:np in
  Solver.rhs solver ~f ~em:None ~out;
  Grid.iter_cells lay.Layout.grid (fun _ c ->
      for k = 0 to np - 1 do
        let v = Field.get out c k in
        if Float.abs v > 1e-11 then
          Alcotest.failf "rhs not zero: %a k=%d v=%g"
            (Fmt.array ~sep:Fmt.comma Fmt.int) c k v
      done)

(* Particle number is conserved: int (df/dt) dz = 0 to machine precision,
   for both flux choices, with and without fields. *)
let test_mass_conservation () =
  List.iter
    (fun (flux, with_em, cdim, vdim, family, p) ->
      let lay = make_lay ~cdim ~vdim ~family ~p ~cells_c:4 ~cells_v:4 ~vmax:2.0 in
      let np = Layout.num_basis lay in
      let solver = Solver.create ~flux ~qm:(-1.5) lay in
      let f = random_f lay in
      Field.sync_ghosts f (phase_bcs lay);
      let em = if with_em then Some (random_em lay) else None in
      (match em with
      | Some e ->
          Field.sync_ghosts e
            (Array.make lay.Layout.cdim (Field.Periodic, Field.Periodic))
      | None -> ());
      let out = phase_field lay ~ncomp:np in
      Solver.rhs solver ~f ~em ~out;
      let mom = Moments.make lay in
      let dmass = Moments.total_mass mom ~f:out in
      let scale = Moments.total_mass mom ~f in
      check_close ~tol:1e-9
        (Printf.sprintf "d(mass)/dt = 0 (em=%b)" with_em)
        0.0
        (dmass /. Float.max 1.0 (Float.abs scale)))
    [
      (Solver.Central, false, 1, 1, Modal.Serendipity, 2);
      (Solver.Upwind, false, 1, 1, Modal.Serendipity, 2);
      (Solver.Central, true, 1, 1, Modal.Tensor, 2);
      (Solver.Upwind, true, 1, 2, Modal.Serendipity, 1);
      (Solver.Upwind, true, 2, 2, Modal.Serendipity, 1);
    ]

(* The discrete energy-exchange identity, Eq. 9 of the paper:
     d/dt int (m |v|^2 / 2) f_h dz = int J_h . E_h dx
   for central fluxes and p >= 2.  This is the property aliasing errors
   destroy; it must hold to machine precision here. *)
let test_energy_exchange_identity () =
  List.iter
    (fun (cdim, vdim, family) ->
      let lay =
        make_lay ~cdim ~vdim ~family ~p:2 ~cells_c:3 ~cells_v:6 ~vmax:2.5
      in
      let np = Layout.num_basis lay in
      let mass = 2.5 and charge = -1.5 in
      let solver = Solver.create ~flux:Solver.Central ~qm:(charge /. mass) lay in
      let f = random_f lay in
      Field.sync_ghosts f (phase_bcs lay);
      let em = random_em lay in
      Field.sync_ghosts em
        (Array.make lay.Layout.cdim (Field.Periodic, Field.Periodic));
      let out = phase_field lay ~ncomp:np in
      Solver.rhs solver ~f ~em:(Some em) ~out;
      let mom = Moments.make lay in
      (* LHS: (m/2) int |v|^2 (df/dt) dz *)
      let ke_dot = Moments.total_kinetic_energy mom ~mass ~f:out in
      (* RHS: int J . E dx with J = q M1 *)
      let nc = Layout.num_cbasis lay in
      let j = Field.create lay.Layout.cgrid ~ncomp:(3 * nc) in
      Moments.accumulate_current mom ~charge ~f ~out:j;
      let jac =
        Grid.cell_volume lay.Layout.cgrid /. (2.0 ** float_of_int cdim)
      in
      let je = ref 0.0 in
      Grid.iter_cells lay.Layout.cgrid (fun _ c ->
          let jb = Field.offset j c and eb = Field.offset em c in
          for comp = 0 to min 2 (lay.Layout.vdim - 1) do
            for k = 0 to nc - 1 do
              je :=
                !je
                +. (Field.data j).(jb + (comp * nc) + k)
                   *. (Field.data em).(eb + (comp * nc) + k)
            done
          done);
      let je = !je *. jac in
      check_close ~tol:1e-9
        (Printf.sprintf "dKE/dt = J.E (%dx%dv %s)" cdim vdim
           (Modal.family_name family))
        je ke_dot)
    [ (1, 1, Modal.Tensor); (1, 2, Modal.Serendipity); (2, 2, Modal.Serendipity) ]

(* The surface term in face form (restrict, one face flux, lift) against
   the volume-lifted four-tensor form it replaced, kept here as the
   oracle: per face, out_L gets -rdx (T_ll alpha f_L + T_lr alpha f_R) +
   lam rdx (P_lr f_R - P_ll f_L) and out_R gets rdx (T_rl alpha f_L +
   T_rr alpha f_R) + lam rdx (P_rl f_L - P_rr f_R); ghost cells are not
   updated and velocity-domain faces carry no flux.  The volume term is
   the solver's own. *)
module Tensors = Dg_kernels.Tensors
module Sparse = Dg_kernels.Sparse
module Flux = Dg_kernels.Flux

let four_tensor_rhs (lay : Layout.t) ~flux ~qm ~(f : Field.t) ~(em : Field.t)
    ~(out : Field.t) =
  let open Tensors in
  let basis = lay.Layout.basis in
  let pdim = lay.Layout.pdim and cdim = lay.Layout.cdim in
  let np = Layout.num_basis lay and nc = Layout.num_cbasis lay in
  let grid = lay.Layout.grid and vg = lay.Layout.vgrid in
  let dx = Grid.dx grid and cells = Grid.cells grid in
  let fd = Field.data f and od = Field.data out in
  Field.fill out 0.0;
  let alpha = Array.make np 0.0 in
  for dir = 0 to pdim - 1 do
    let dk = make_dir lay ~dir in
    let support = dk.support in
    let surf s_l s_n = surface basis ~support ~dir ~s_l ~s_n in
    let pen s_l s_n = penalty basis ~dir ~s_l ~s_n in
    let sll = surf Hi Hi and slr = surf Hi Lo and srl = surf Lo Hi
    and srr = surf Lo Lo in
    let pll = pen Hi Hi and plr = pen Hi Lo and prl = pen Lo Hi
    and prr = pen Lo Lo in
    let ctx =
      if dir < cdim then None
      else Some (Flux.make_accel_ctx lay ~vdir:(dir - cdim) ~qm)
    in
    let rdx = 1.0 /. dx.(dir) in
    Grid.iter_cells grid (fun _ c ->
        let vcenter =
          Array.init lay.Layout.vdim (fun k ->
              (Grid.lower vg).(k)
              +. ((float_of_int c.(cdim + k) +. 0.5) *. (Grid.dx vg).(k)))
        in
        Array.fill alpha 0 np 0.0;
        let lam =
          match ctx with
          | None ->
              let s = Flux.make_stream_ctx lay ~dir ~dv:(Grid.dx vg).(dir) in
              Flux.streaming_alpha s ~vcenter alpha;
              Flux.streaming_max_speed s ~vcenter
          | Some ctx ->
              let cc = Array.sub c 0 cdim in
              Flux.accel_alpha ctx ~em:(Field.data em)
                ~em_off:(Field.offset em cc) ~ncbasis:nc ~vcenter alpha;
              Flux.accel_max_speed ctx alpha
        in
        let lam = if flux = Solver.Central then 0.0 else lam in
        Sparse.apply_t3_off dk.vol ~scale:(2.0 *. rdx) alpha fd
          ~foff:(Field.offset f c) od ~ooff:(Field.offset out c);
        let update_face ~cl ~cr ~update_l ~update_r =
          let fl = Field.offset f cl and fr = Field.offset f cr in
          if update_l then begin
            let o = Field.offset out cl in
            Sparse.apply_t3_off sll ~scale:(-.rdx) alpha fd ~foff:fl od ~ooff:o;
            Sparse.apply_t3_off slr ~scale:(-.rdx) alpha fd ~foff:fr od ~ooff:o;
            Sparse.apply_t2_off plr ~scale:(lam *. rdx) fd ~foff:fr od ~ooff:o;
            Sparse.apply_t2_off pll ~scale:(-.lam *. rdx) fd ~foff:fl od ~ooff:o
          end;
          if update_r then begin
            let o = Field.offset out cr in
            Sparse.apply_t3_off srl ~scale:rdx alpha fd ~foff:fl od ~ooff:o;
            Sparse.apply_t3_off srr ~scale:rdx alpha fd ~foff:fr od ~ooff:o;
            Sparse.apply_t2_off prl ~scale:(lam *. rdx) fd ~foff:fl od ~ooff:o;
            Sparse.apply_t2_off prr ~scale:(-.lam *. rdx) fd ~foff:fr od ~ooff:o
          end
        in
        let shifted d =
          let a = Array.copy c in
          a.(dir) <- c.(dir) + d;
          a
        in
        if dir < cdim || c.(dir) > 0 then
          update_face ~cl:(shifted (-1)) ~cr:c ~update_l:(c.(dir) > 0)
            ~update_r:true;
        if dir < cdim && c.(dir) = cells.(dir) - 1 then
          update_face ~cl:c ~cr:(shifted 1) ~update_l:true ~update_r:false)
  done

let test_face_form_vs_four_tensor () =
  List.iter
    (fun (cdim, vdim, family, p) ->
      let lay = make_lay ~cdim ~vdim ~family ~p ~cells_c:3 ~cells_v:3 ~vmax:2.0 in
      let np = Layout.num_basis lay in
      let f = phase_field lay ~ncomp:np in
      let rng = Random.State.make [| 21 |] in
      Grid.iter_cells lay.Layout.grid (fun _ c ->
          for k = 0 to np - 1 do
            Field.set f c k (Random.State.float rng 2.0 -. 1.0)
          done);
      Field.sync_ghosts f (phase_bcs lay);
      let em = random_em lay in
      Field.sync_ghosts em
        (Array.make lay.Layout.cdim (Field.Periodic, Field.Periodic));
      List.iter
        (fun flux ->
          List.iter
            (fun use_kernels ->
              let solver = Solver.create ~flux ~use_kernels ~qm:(-1.3) lay in
              let out = phase_field lay ~ncomp:np in
              let ref_rhs = phase_field lay ~ncomp:np in
              Solver.rhs solver ~f ~em:(Some em) ~out;
              four_tensor_rhs lay ~flux ~qm:(-1.3) ~f ~em ~out:ref_rhs;
              let scale = ref 0.0 in
              Grid.iter_cells lay.Layout.grid (fun _ c ->
                  for k = 0 to np - 1 do
                    scale := Float.max !scale (Float.abs (Field.get ref_rhs c k))
                  done);
              Grid.iter_cells lay.Layout.grid (fun _ c ->
                  for k = 0 to np - 1 do
                    let a = Field.get out c k and b = Field.get ref_rhs c k in
                    if Float.abs (a -. b) > 1e-12 *. !scale then
                      Alcotest.failf
                        "%dx%dv p%d %s %s kernels=%b: coeff %d: %.17g <> %.17g"
                        cdim vdim p (Modal.family_name family)
                        (if flux = Solver.Central then "central" else "upwind")
                        use_kernels k a b
                  done))
            [ true; false ])
        [ Solver.Central; Solver.Upwind ])
    [
      (1, 1, Modal.Serendipity, 2);
      (1, 2, Modal.Tensor, 1);
      (1, 2, Modal.Maximal_order, 2);
      (2, 2, Modal.Serendipity, 2);
    ]

(* Free-streaming advection of a smooth profile: compare against the exact
   solution f0(x - v t, v) after a short time; the error must converge at
   high order with resolution. *)
let advection_error ~cells_c ~p =
  (* refine both dimensions so the velocity-space projection error also
     shrinks, and keep the Gaussian negligible at the velocity boundary *)
  let lay =
    make_lay ~cdim:1 ~vdim:1 ~family:Modal.Tensor ~p ~cells_c ~cells_v:cells_c
      ~vmax:3.0
  in
  let np = Layout.num_basis lay in
  let solver = Solver.create ~flux:Solver.Upwind ~qm:0.0 lay in
  let f0 ~pos ~vel = (1.0 +. (0.5 *. sin pos.(0))) *. exp (-2.0 *. vel.(0) *. vel.(0)) in
  let f = phase_field lay ~ncomp:np in
  Dg_app.Vm_app.project_phase lay ~f:f0 f;
  let stepper = Dg_time.Stepper.create ~scheme:Dg_time.Stepper.Ssp_rk3 ~like:[ f ] in
  let bcs = phase_bcs lay in
  let rhs ~time:_ state outs =
    match (state, outs) with
    | [ fs ], [ os ] ->
        Field.sync_ghosts fs bcs;
        Solver.rhs solver ~f:fs ~em:None ~out:os
    | _ -> assert false
  in
  let tend = 0.5 in
  let dt = 0.2 /. float_of_int cells_c in
  let nsteps = int_of_float (Float.ceil (tend /. dt)) in
  let dt = tend /. float_of_int nsteps in
  for i = 0 to nsteps - 1 do
    Dg_time.Stepper.step stepper ~rhs ~time:(float_of_int i *. dt) ~dt [ f ]
  done;
  (* L2 error against the exact solution via quadrature *)
  let exact ~pos ~vel = f0 ~pos:[| pos.(0) -. (vel.(0) *. tend) |] ~vel in
  let err = ref 0.0 in
  let phys = Array.make 2 0.0 in
  let basis = lay.Layout.basis in
  let pts, wts = Dg_cas.Quadrature.tensor ~dim:2 ~n:(p + 2) in
  let jac = Grid.cell_volume lay.Layout.grid /. 4.0 in
  let block = Array.make np 0.0 in
  Grid.iter_cells lay.Layout.grid (fun _ c ->
      Field.read_block f c block;
      Array.iteri
        (fun q pt ->
          Grid.to_physical lay.Layout.grid c pt phys;
          let d =
            Modal.eval_expansion basis block pt
            -. exact ~pos:[| phys.(0) |] ~vel:[| phys.(1) |]
          in
          err := !err +. (wts.(q) *. d *. d *. jac))
        pts);
  sqrt !err

let test_advection_convergence () =
  List.iter
    (fun p ->
      let e1 = advection_error ~cells_c:8 ~p in
      let e2 = advection_error ~cells_c:16 ~p in
      let order = log (e1 /. e2) /. log 2.0 in
      if order < float_of_int p +. 0.5 then
        Alcotest.failf "p=%d: order %.2f too low (e: %.3e -> %.3e)" p order e1 e2)
    [ 1; 2 ]

let () =
  Alcotest.run "dg_vlasov"
    [
      ( "conservation",
        [
          Alcotest.test_case "uniform steady state" `Quick test_uniform_steady;
          Alcotest.test_case "mass conservation" `Quick test_mass_conservation;
          Alcotest.test_case "face form == four-tensor surface form" `Quick
            test_face_form_vs_four_tensor;
          Alcotest.test_case "energy exchange identity (Eq. 9)" `Quick
            test_energy_exchange_identity;
        ] );
      ( "accuracy",
        [
          Alcotest.test_case "advection convergence order" `Slow
            test_advection_convergence;
        ] );
    ]
