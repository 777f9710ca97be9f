(* Property-based tests (qcheck) over randomized configurations: the core
   invariants must hold for every layout, basis family and random state,
   not just the hand-picked cases of the unit suites. *)

module Layout = Dg_kernels.Layout
module Modal = Dg_basis.Modal
module Grid = Dg_grid.Grid
module Field = Dg_grid.Field
module Solver = Dg_vlasov.Solver
module Moments = Dg_moments.Moments
module Flux = Dg_kernels.Flux
module Tensors = Dg_kernels.Tensors
module Recovery = Dg_kernels.Recovery
module Limiter = Dg_limiter.Limiter
module Checkpoint = Dg_resilience.Checkpoint
module Lbo = Dg_collisions.Lbo
module Maxwell = Dg_maxwell.Maxwell
module Lindg = Dg_lindg.Lindg

let layout_gen =
  QCheck.Gen.(
    let* cdim = int_range 1 2 in
    let* vdim = int_range cdim 2 in
    let* p = int_range 1 2 in
    let* fam = oneofl [ Modal.Tensor; Modal.Serendipity; Modal.Maximal_order ] in
    let* seed = int_range 0 10000 in
    return (cdim, vdim, p, fam, seed))

let pp_cfg (cdim, vdim, p, fam, seed) =
  Printf.sprintf "%dx%dv p=%d %s seed=%d" cdim vdim p (Modal.family_name fam) seed

let arb_cfg = QCheck.make ~print:pp_cfg layout_gen

let build (cdim, vdim, p, fam, seed) =
  let pdim = cdim + vdim in
  let cells = Array.init pdim (fun d -> if d < cdim then 3 else 4) in
  let lower = Array.init pdim (fun d -> if d < cdim then 0.0 else -2.0) in
  let upper = Array.init pdim (fun d -> if d < cdim then 1.0 else 2.0) in
  let lay =
    Layout.make ~cdim ~vdim ~family:fam ~poly_order:p
      ~grid:(Grid.make ~cells ~lower ~upper)
  in
  let np = Layout.num_basis lay in
  let rng = Random.State.make [| seed |] in
  let f = Field.create lay.Layout.grid ~ncomp:np in
  Grid.iter_cells lay.Layout.grid (fun _ c ->
      for k = 0 to np - 1 do
        Field.set f c k (Random.State.float rng 2.0 -. 1.0)
      done);
  Field.sync_ghosts f
    (Array.init pdim (fun d ->
         if d < cdim then (Field.Periodic, Field.Periodic)
         else (Field.Zero, Field.Zero)));
  let nc = Layout.num_cbasis lay in
  let em = Field.create lay.Layout.cgrid ~ncomp:(8 * nc) in
  Grid.iter_cells lay.Layout.cgrid (fun _ c ->
      for k = 0 to (6 * nc) - 1 do
        Field.set em c k (Random.State.float rng 2.0 -. 1.0)
      done);
  Field.sync_ghosts em (Array.make cdim (Field.Periodic, Field.Periodic));
  (lay, f, em, rng)

(* Mass conservation for every random configuration and both fluxes. *)
let prop_mass_conservation =
  QCheck.Test.make ~name:"rhs conserves particle number (any layout/flux)"
    ~count:25 arb_cfg (fun cfg ->
      let lay, f, em, _ = build cfg in
      let np = Layout.num_basis lay in
      let ok flux =
        let solver = Solver.create ~flux ~qm:(-1.2) lay in
        let out = Field.create lay.Layout.grid ~ncomp:np in
        Solver.rhs solver ~f ~em:(Some em) ~out;
        let mom = Moments.make lay in
        let dm = Moments.total_mass mom ~f:out in
        let scale = 1.0 +. Float.abs (Moments.total_mass mom ~f) in
        Float.abs (dm /. scale) < 1e-9
      in
      ok Solver.Central && ok Solver.Upwind)

(* The acceleration penalty bound really bounds |alpha| pointwise. *)
let prop_accel_bound =
  QCheck.Test.make ~name:"acceleration speed bound is a bound" ~count:25
    arb_cfg (fun cfg ->
      let lay, _, em, rng = build cfg in
      let np = Layout.num_basis lay in
      let nc = Layout.num_cbasis lay in
      let alpha = Array.make np 0.0 in
      let ok = ref true in
      for vdir = 0 to lay.Layout.vdim - 1 do
        (* the kernels only read support entries; the full-expansion
           evaluation below needs the rest cleared *)
        Array.fill alpha 0 np 0.0;
        let ctx = Flux.make_accel_ctx lay ~vdir ~qm:1.7 in
        let cc = Array.make lay.Layout.cdim 0 in
        let vcenter =
          Array.init lay.Layout.vdim (fun _ -> Random.State.float rng 2.0 -. 1.0)
        in
        Flux.accel_alpha ctx ~em:(Field.data em) ~em_off:(Field.offset em cc)
          ~ncbasis:nc ~vcenter alpha;
        let bound = Flux.accel_max_speed ctx alpha in
        for _ = 1 to 20 do
          let xi =
            Array.init lay.Layout.pdim (fun _ -> Random.State.float rng 2.0 -. 1.0)
          in
          let v = Float.abs (Modal.eval_expansion lay.Layout.basis alpha xi) in
          if v > bound +. 1e-9 then ok := false
        done
      done;
      !ok)

(* Recovery across an interface reproduces any global polynomial of degree
   <= 2p+1 exactly (value and slope). *)
let prop_recovery_exact =
  QCheck.Test.make ~name:"recovery exact on degree 2p+1 polynomials" ~count:50
    QCheck.(pair (int_range 1 3) (int_range 0 100000))
    (fun (p, seed) ->
      let rng = Random.State.make [| seed |] in
      let deg = (2 * p) + 1 in
      let coeffs = Array.init (deg + 1) (fun _ -> Random.State.float rng 2.0 -. 1.0) in
      (* the polynomial on the doubled cell s in [-2, 2] *)
      let q s =
        let acc = ref 0.0 in
        for k = deg downto 0 do
          acc := (!acc *. s) +. coeffs.(k)
        done;
        !acc
      in
      let dq s =
        let acc = ref 0.0 in
        for k = deg downto 1 do
          acc := (!acc *. s) +. (float_of_int k *. coeffs.(k))
        done;
        !acc
      in
      (* project onto the two cells: u_{L,m} = int_{-1}^{1} q(xi - 1) P~_m *)
      let project shift =
        Array.init (p + 1) (fun m ->
            Dg_cas.Quadrature.integrate ~dim:1 ~n:(p + 4) (fun pt ->
                q (pt.(0) +. float_of_int shift)
                *. Dg_cas.Legendre.eval_normalized m pt.(0)))
      in
      let ul = project (-1) and ur = project 1 in
      let r = Recovery.shared p in
      let dot a b = Array.fold_left ( +. ) 0.0 (Array.mapi (fun i x -> x *. b.(i)) a) in
      let rval = dot r.Recovery.rval_l ul +. dot r.Recovery.rval_r ur in
      let rder = dot r.Recovery.rder_l ul +. dot r.Recovery.rder_r ur in
      Dg_util.Float_cmp.close ~rtol:1e-8 ~atol:1e-8 rval (q 0.0)
      && Dg_util.Float_cmp.close ~rtol:1e-8 ~atol:1e-8 rder (dq 0.0))

(* A checkpoint of snapshot-encoded fields round-trips arbitrary field
   shapes bit-exactly. *)
let prop_snapshot_roundtrip =
  QCheck.Test.make ~name:"snapshot roundtrip" ~count:20
    QCheck.(triple (int_range 1 5) (int_range 1 4) (int_range 0 1000))
    (fun (nx, ncomp, seed) ->
      let grid =
        Grid.make ~cells:[| nx; 3 |] ~lower:[| 0.; -1. |] ~upper:[| 1.; 1. |]
      in
      let f = Field.create grid ~ncomp in
      let rng = Random.State.make [| seed |] in
      let d = Field.data f in
      for i = 0 to Array.length d - 1 do
        d.(i) <- Random.State.float rng 2.0 -. 1.0
      done;
      let dir = Filename.temp_dir "dgprop" "" in
      let info = Checkpoint.write ~dir ~step:seed ~time:0.5 [ f; f ] in
      let g, step, time = Checkpoint.read info.Checkpoint.path in
      Array.iter
        (fun n -> Sys.remove (Filename.concat dir n))
        (Sys.readdir dir);
      Sys.rmdir dir;
      step = seed && time = 0.5
      && List.map Field.data g = [ Field.data f; Field.data f ])

(* The positivity limiter only rescales modes k >= 1, so every cell
   average — and with it total particle number — must come back bitwise
   identical, for every layout and basis family. *)
let prop_limiter_mean_preserving =
  QCheck.Test.make
    ~name:"positivity limiter preserves cell averages + mass bitwise" ~count:30
    arb_cfg (fun cfg ->
      let lay, f, _, _ = build cfg in
      let lim = Limiter.create lay.Layout.basis in
      (* guarantee a repairable violation somewhere: one cell with a
         positive mean and a mode-1 slope far too steep for positivity *)
      let poisoned = Array.make lay.Layout.pdim 0 in
      Field.set f poisoned 0 2.0;
      Field.set f poisoned 1 (-10.0);
      let mom = Moments.make lay in
      let mass0 = Moments.total_mass mom ~f in
      let d = Field.data f in
      let before = Array.copy d in
      let r = Limiter.apply lim f in
      let means_ok = ref true in
      Grid.iter_cells lay.Layout.grid (fun _ c ->
          let off = Field.offset f c in
          if d.(off) <> before.(off) then means_ok := false);
      r.Limiter.cells_clamped >= 1
      && !means_ok
      && Moments.total_mass mom ~f = mass0)

(* With positive cell means everywhere, every violation is repairable and
   one limiter pass leaves no node below the floor (up to rescale
   rounding). *)
let prop_limiter_repairs_to_floor =
  QCheck.Test.make
    ~name:"positivity limiter leaves no repairable undershoot" ~count:30
    arb_cfg (fun cfg ->
      let lay, f, _, _ = build cfg in
      let lim = Limiter.create lay.Layout.basis in
      Grid.iter_cells lay.Layout.grid (fun _ c -> Field.set f c 0 3.0);
      let r1 = Limiter.apply lim f in
      let r2 = Limiter.scan lim f in
      r1.Limiter.unrepairable = 0
      && r2.Limiter.unrepairable = 0
      && r2.Limiter.max_undershoot <= 1e-12)

(* A cell whose average is itself below the floor cannot be repaired
   mean-preservingly: it must be reported for tier-1+ escalation and left
   bit-exactly untouched (no papering over lost cells). *)
let prop_limiter_reports_unrepairable =
  QCheck.Test.make
    ~name:"positivity limiter reports (not edits) negative-mean cells"
    ~count:30 arb_cfg (fun cfg ->
      let lay, f, _, _ = build cfg in
      let np = Layout.num_basis lay in
      let lim = Limiter.create lay.Layout.basis in
      let lost = Array.make lay.Layout.pdim 0 in
      for k = 1 to np - 1 do
        Field.set f lost k 0.0
      done;
      Field.set f lost 0 (-5.0);
      Field.set f lost 1 0.5;
      let off = Field.offset f lost in
      let d = Field.data f in
      let cell_before = Array.sub d off np in
      let r = Limiter.apply lim f in
      r.Limiter.unrepairable >= 1 && Array.sub d off np = cell_before)

(* Weak multiplication is bilinear and symmetric. *)
let prop_weak_mul =
  QCheck.Test.make ~name:"weak multiplication bilinear + symmetric" ~count:30
    (QCheck.make QCheck.Gen.(int_range 0 100000) ~print:string_of_int)
    (fun seed ->
      let lay, _, _, _ = build (1, 1, 2, Modal.Serendipity, seed) in
      let prim = Dg_collisions.Prim_moments.make lay in
      let nc = Layout.num_cbasis lay in
      let rng = Random.State.make [| seed + 1 |] in
      let rand () = Array.init nc (fun _ -> Random.State.float rng 2.0 -. 1.0) in
      let a = rand () and b = rand () and c = rand () in
      let mul x y =
        let out = Array.make nc 0.0 in
        Dg_collisions.Prim_moments.weak_mul prim x y out;
        out
      in
      let ab = mul a b and ba = mul b a in
      let sum = Array.mapi (fun i x -> x +. c.(i)) b in
      let a_sum = mul a sum in
      let ab_ac = Array.mapi (fun i x -> x +. (mul a c).(i)) ab in
      Dg_util.Float_cmp.array_close ~rtol:1e-10 ~atol:1e-12 ab ba
      && Dg_util.Float_cmp.array_close ~rtol:1e-9 ~atol:1e-11 a_sum ab_ac)

(* The referee: on random small states, every standard configuration
   (Codegen.standard_configs) x {generated, interpreted} x {Central,
   Upwind} conserves particle number to a roundoff bound that scales
   with the DOF count, and at p >= 2 its kinetic-energy rate equals the
   field work int J.E (paper Eq. 9; both fluxes: the test function |v|^2
   is continuous across every face, and velocity-domain faces carry no
   flux).  With the Dougherty operator added to the same RHS, particle
   number is still conserved to that bound. *)
let referee_state ~family ~p ~cdim ~vdim ~seed =
  let pdim = cdim + vdim in
  let cells = Array.init pdim (fun d -> if d < cdim then 2 else 3) in
  let lower = Array.init pdim (fun d -> if d < cdim then 0.0 else -2.0) in
  let upper = Array.init pdim (fun d -> if d < cdim then 1.0 else 2.0) in
  let lay =
    Layout.make ~cdim ~vdim ~family ~poly_order:p
      ~grid:(Grid.make ~cells ~lower ~upper)
  in
  let np = Layout.num_basis lay and nc = Layout.num_cbasis lay in
  let rng = Random.State.make [| seed |] in
  let f = Field.create lay.Layout.grid ~ncomp:np in
  Grid.iter_cells lay.Layout.grid (fun _ c ->
      for k = 0 to np - 1 do
        Field.set f c k (Random.State.float rng 2.0 -. 1.0)
      done);
  Field.sync_ghosts f
    (Array.init pdim (fun d ->
         if d < cdim then (Field.Periodic, Field.Periodic)
         else (Field.Zero, Field.Zero)));
  let em = Field.create lay.Layout.cgrid ~ncomp:(8 * nc) in
  Grid.iter_cells lay.Layout.cgrid (fun _ c ->
      for k = 0 to (6 * nc) - 1 do
        Field.set em c k (Random.State.float rng 2.0 -. 1.0)
      done);
  Field.sync_ghosts em (Array.make cdim (Field.Periodic, Field.Periodic));
  (lay, f, em)

let abs_field fld =
  let a = Field.clone fld in
  let d = Field.data a in
  Array.iteri (fun i v -> d.(i) <- Float.abs v) d;
  a

(* int J.E dx and int |J||E| dx (its roundoff scale), J = q M1. *)
let field_work (lay : Layout.t) mom ~charge ~f ~em =
  let nc = Layout.num_cbasis lay in
  let j = Field.create lay.Layout.cgrid ~ncomp:(3 * nc) in
  Moments.accumulate_current mom ~charge ~f ~out:j;
  let jac =
    Grid.cell_volume lay.Layout.cgrid /. (2.0 ** float_of_int lay.Layout.cdim)
  in
  let je = ref 0.0 and je_abs = ref 0.0 in
  Grid.iter_cells lay.Layout.cgrid (fun _ c ->
      for comp = 0 to min 2 (lay.Layout.vdim - 1) do
        for k = 0 to nc - 1 do
          let x = Field.get j c ((comp * nc) + k) *. Field.get em c ((comp * nc) + k) in
          je := !je +. x;
          je_abs := !je_abs +. Float.abs x
        done
      done);
  (!je *. jac, !je_abs *. jac)

let prop_referee =
  QCheck.Test.make
    ~name:"referee: every standard config x kernels x flux conserves N, KE"
    ~count:2
    (QCheck.make QCheck.Gen.(int_range 0 100000) ~print:string_of_int)
    (fun seed ->
      let eps = epsilon_float in
      List.iter
        (fun (family, p, cdim, vdim) ->
          let lay, f, em = referee_state ~family ~p ~cdim ~vdim ~seed in
          let np = Layout.num_basis lay in
          let ndof = float_of_int (np * Grid.num_cells lay.Layout.grid) in
          let mom = Moments.make lay in
          let mass = 1.7 and charge = -0.8 in
          let lbo = Lbo.create ~nu:0.9 lay in
          Lbo.update_prim lbo ~f;
          let check_mass tag out =
            let dm = Moments.total_mass mom ~f:out in
            let bound_m =
              eps *. ndof *. Moments.total_mass mom ~f:(abs_field out)
            in
            if not (Float.abs dm <= bound_m) then
              QCheck.Test.fail_reportf "%s: dN/dt = %.3e over bound %.3e" tag
                dm bound_m
          in
          List.iter
            (fun (flux, fname) ->
              List.iter
                (fun use_kernels ->
                  let tag =
                    Printf.sprintf "%dx%dv p%d %s %s %s seed %d" cdim vdim p
                      (Modal.family_name family) fname
                      (if use_kernels then "generated" else "interpreted")
                      seed
                  in
                  let s =
                    Solver.create ~flux ~use_kernels ~qm:(charge /. mass) lay
                  in
                  let out = Field.create lay.Layout.grid ~ncomp:np in
                  Solver.rhs s ~f ~em:(Some em) ~out;
                  check_mass tag out;
                  if p >= 2 then begin
                    let ke_dot = Moments.total_kinetic_energy mom ~mass ~f:out in
                    let je, je_abs = field_work lay mom ~charge ~f ~em in
                    let bound_e =
                      eps *. ndof
                      *. (je_abs
                         +. Float.abs
                              (Moments.total_kinetic_energy mom ~mass
                                 ~f:(abs_field out)))
                    in
                    if not (Float.abs (ke_dot -. je) <= bound_e) then
                      QCheck.Test.fail_reportf
                        "%s: dKE/dt = %.17g, int J.E = %.17g (bound %.3e)" tag
                        ke_dot je bound_e
                  end;
                  Lbo.rhs lbo ~f ~out;
                  check_mass (tag ^ " + LBO") out)
                [ true; false ])
            [ (Solver.Central, "central"); (Solver.Upwind, "upwind") ])
        Dg_codegen.Codegen.standard_configs;
      true)

(* Beside the referee: total energy with a central Maxwell flux (paper
   Sec. II; Juno et al., arXiv:1705.05407).  On random small states of
   every standard configuration at p >= 2, the Vlasov RHS (either flux,
   generated or interpreted kernels),
   the homogeneous Maxwell RHS with central fluxes and no divergence
   cleaning, and the current source -J together conserve
   KE + (1/2) int |E|^2 + |B|^2: dKE/dt + <E, dE/dt> + <B, dB/dt> = 0 to
   the referee's eps * N_dof-scaled bound. *)
let prop_energy_central_maxwell =
  QCheck.Test.make
    ~name:"referee: central Maxwell flux conserves total energy (p >= 2)"
    ~count:2
    (QCheck.make QCheck.Gen.(int_range 0 100000) ~print:string_of_int)
    (fun seed ->
      List.iter
        (fun (family, p, cdim, vdim) ->
          if p >= 2 then begin
            let lay, f, em = referee_state ~family ~p ~cdim ~vdim ~seed in
            let np = Layout.num_basis lay and nc = Layout.num_cbasis lay in
            let cgrid = lay.Layout.cgrid in
            let ndof =
              float_of_int
                ((np * Grid.num_cells lay.Layout.grid)
                + (6 * nc * Grid.num_cells cgrid))
            in
            let mom = Moments.make lay in
            let mass = 1.7 and charge = -0.8 in
            let mx =
              Maxwell.create ~flux:Lindg.Central ~chi:0.0 ~gamma:0.0
                ~basis:lay.Layout.cbasis ~grid:cgrid ()
            in
            let current = Field.create cgrid ~ncomp:(3 * nc) in
            Moments.accumulate_current mom ~charge ~f ~out:current;
            let em_out = Field.create cgrid ~ncomp:(8 * nc) in
            Maxwell.rhs mx ~em ~out:em_out;
            Maxwell.add_current_source mx ~current ~out:em_out;
            (* <E, dE/dt> + <B, dB/dt>, and the sum of its terms' sizes *)
            let jac = Grid.cell_volume cgrid /. (2.0 ** float_of_int cdim) in
            let em_dot = ref 0.0 and em_abs = ref 0.0 in
            Grid.iter_cells cgrid (fun _ c ->
                for k = 0 to (6 * nc) - 1 do
                  let x = Field.get em c k *. Field.get em_out c k in
                  em_dot := !em_dot +. x;
                  em_abs := !em_abs +. Float.abs x
                done);
            List.iter
              (fun ((flux, fname), use_kernels) ->
                let s =
                  Solver.create ~flux ~use_kernels ~qm:(charge /. mass) lay
                in
                let out = Field.create lay.Layout.grid ~ncomp:np in
                Solver.rhs s ~f ~em:(Some em) ~out;
                let ke_dot = Moments.total_kinetic_energy mom ~mass ~f:out in
                let rate = ke_dot +. (!em_dot *. jac) in
                let bound =
                  epsilon_float *. ndof
                  *. (Float.abs
                        (Moments.total_kinetic_energy mom ~mass
                           ~f:(abs_field out))
                     +. (!em_abs *. jac))
                in
                if not (Float.abs rate <= bound) then
                  QCheck.Test.fail_reportf
                    "%dx%dv p%d %s %s %s seed %d: dW/dt = %.3e over bound \
                     %.3e"
                    cdim vdim p (Modal.family_name family) fname
                    (if use_kernels then "generated" else "interpreted")
                    seed rate bound)
              (List.concat_map
                 (fun fl -> [ (fl, true); (fl, false) ])
                 [ (Solver.Central, "central"); (Solver.Upwind, "upwind") ])
          end)
        Dg_codegen.Codegen.standard_configs;
      true)

let () =
  Alcotest.run "dg_properties"
    [
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_mass_conservation;
            prop_referee;
            prop_energy_central_maxwell;
            prop_accel_bound;
            prop_recovery_exact;
            prop_snapshot_roundtrip;
            prop_limiter_mean_preserving;
            prop_limiter_repairs_to_floor;
            prop_limiter_reports_unrepairable;
            prop_weak_mul;
          ] );
    ]
