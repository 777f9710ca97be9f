(* Integration tests of the App layer: full Vlasov-Maxwell / Vlasov-Ampere
   cycles with conservation checks — the end-to-end properties the paper
   proves for the semi-discrete scheme (mass exactly; total particle+field
   energy with central fluxes, up to the small RK3 temporal error). *)

module App = Dg_app.Vm_app
module Field = Dg_grid.Field

let maxwellian1 ~vt v = exp (-.(v *. v) /. (2.0 *. vt *. vt)) /. sqrt (2.0 *. Float.pi *. vt *. vt)

let base_spec ~field_model ~flux ~collisions =
  let k = 0.5 in
  let l = 2.0 *. Float.pi /. k in
  let electron =
    App.species ~name:"elc" ~charge:(-1.0) ~mass:1.0 ~collisions
      ~init_f:(fun ~pos ~vel ->
        (1.0 +. (0.05 *. cos (k *. pos.(0)))) *. maxwellian1 ~vt:1.0 vel.(0))
      ()
  in
  {
    (App.default_spec ~cdim:1 ~vdim:1 ~cells:[| 8; 16 |] ~lower:[| 0.0; -6.0 |]
       ~upper:[| l; 6.0 |] ~species:[ electron ])
    with
    App.field_model;
    poly_order = 2;
    vlasov_flux = flux;
    init_em =
      Some
        (fun x ->
          let em = Array.make 8 0.0 in
          em.(0) <- -.(0.05 /. 0.5) *. sin (0.5 *. x.(0));
          em);
  }

let run_and_measure spec ~steps =
  let app = App.create spec in
  let m0 = App.total_mass app 0 in
  let e0 = App.total_energy app in
  for _ = 1 to steps do
    ignore (App.step app)
  done;
  let m1 = App.total_mass app 0 in
  let e1 = App.total_energy app in
  (app, Float.abs ((m1 -. m0) /. m0), Float.abs ((e1 -. e0) /. e0))

let test_vm_conservation_central () =
  let spec =
    base_spec ~field_model:App.Full_maxwell ~flux:Dg_vlasov.Solver.Central
      ~collisions:App.No_collisions
  in
  let _, dm, de = run_and_measure spec ~steps:50 in
  if dm > 1e-12 then Alcotest.failf "mass drift %.3e" dm;
  if de > 1e-7 then Alcotest.failf "energy drift %.3e (central flux)" de

let test_vm_upwind_mass () =
  let spec =
    base_spec ~field_model:App.Full_maxwell ~flux:Dg_vlasov.Solver.Upwind
      ~collisions:App.No_collisions
  in
  let _, dm, de = run_and_measure spec ~steps:50 in
  if dm > 1e-12 then Alcotest.failf "mass drift %.3e" dm;
  (* upwind adds dissipation but should stay small on this smooth problem *)
  if de > 1e-3 then Alcotest.failf "energy drift %.3e too big" de

let test_ampere_conservation () =
  let spec =
    base_spec ~field_model:App.Ampere_only ~flux:Dg_vlasov.Solver.Central
      ~collisions:App.No_collisions
  in
  let _, dm, de = run_and_measure spec ~steps:50 in
  if dm > 1e-12 then Alcotest.failf "mass drift %.3e" dm;
  if de > 1e-7 then Alcotest.failf "energy drift %.3e" de

let test_collisional_app () =
  let spec =
    base_spec ~field_model:App.Ampere_only ~flux:Dg_vlasov.Solver.Upwind
      ~collisions:(App.Lbo_collisions 0.2)
  in
  let app, dm, _ = run_and_measure spec ~steps:10 in
  if dm > 1e-11 then Alcotest.failf "mass drift with LBO: %.3e" dm;
  Alcotest.(check bool) "stepped" true (App.nsteps app = 10)

let test_determinism () =
  let spec =
    base_spec ~field_model:App.Full_maxwell ~flux:Dg_vlasov.Solver.Upwind
      ~collisions:App.No_collisions
  in
  let run () =
    let app = App.create spec in
    for _ = 1 to 5 do
      ignore (App.step app)
    done;
    Array.copy (Field.data (App.distribution app 0))
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bitwise deterministic" true (a = b)

(* electron-proton plasma, 1X1V p=1 on 4 x 12 cells, full Maxwell *)
let two_species_spec () =
  let k = 0.5 in
  let l = 2.0 *. Float.pi /. k in
  let mk name charge mass vt =
    App.species ~name ~charge ~mass
      ~init_f:(fun ~pos:_ ~vel -> maxwellian1 ~vt vel.(0))
      ()
  in
  {
    (App.default_spec ~cdim:1 ~vdim:1 ~cells:[| 4; 12 |]
       ~lower:[| 0.0; -6.0 |] ~upper:[| l; 6.0 |]
       ~species:[ mk "elc" (-1.0) 1.0 1.0; mk "ion" 1.0 25.0 0.2 ])
    with
    App.field_model = App.Full_maxwell;
    poly_order = 1;
  }

let test_two_species () =
  (* both species evolve; total charge-weighted current enters Ampere's
     law; mass of each conserved *)
  let app = App.create (two_species_spec ()) in
  let m_e = App.total_mass app 0 and m_i = App.total_mass app 1 in
  for _ = 1 to 20 do
    ignore (App.step app)
  done;
  let dm_e = Float.abs ((App.total_mass app 0 -. m_e) /. m_e) in
  let dm_i = Float.abs ((App.total_mass app 1 -. m_i) /. m_i) in
  if dm_e > 1e-12 || dm_i > 1e-12 then
    Alcotest.failf "two-species mass drift: %.3e %.3e" dm_e dm_i

(* every species counts, and a static field counts nothing *)
let test_dof_per_step () =
  let two = App.create (two_species_spec ()) in
  (* 2 species x 48 cells x 4 (p=1 Serendipity 1X1V) + 8 EM x 4 cells x 2 *)
  Alcotest.(check (float 0.0)) "two species" 448.0 (App.dof_per_step two);
  let static =
    App.create
      (base_spec ~field_model:App.Static ~flux:Dg_vlasov.Solver.Upwind
         ~collisions:App.No_collisions)
  in
  (* 1 species x 128 cells x 8 (p=2 Serendipity 1X1V), no EM *)
  Alcotest.(check (float 0.0)) "static field" 1024.0 (App.dof_per_step static)

let test_suggest_dt_positive () =
  let spec =
    base_spec ~field_model:App.Full_maxwell ~flux:Dg_vlasov.Solver.Upwind
      ~collisions:App.No_collisions
  in
  let app = App.create spec in
  let dt = App.suggest_dt app in
  Alcotest.(check bool) "dt finite positive" true (dt > 0.0 && Float.is_finite dt)

(* Every projection site, pinned bit for bit: the initial phase and config
   projections, the Poisson_es field after create, and one BGK right-hand
   side.  Each coefficient is sum_q (w_q f(x_q)) w_k(x_q) in point order,
   so tabulating the rule and basis once per basis may reorder nothing.
   The digests were taken before the tables existed.  The phase and config
   data are rational in the coordinates (no libm); the Landau E and the BGK
   Maxwellian go through cos/sin/exp, so those two pin this libm too. *)
module Layout = Dg_kernels.Layout
module Modal = Dg_basis.Modal
module Grid = Dg_grid.Grid

let digest xs =
  let b = Buffer.create (8 * Array.length xs) in
  Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) xs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let layout ~cdim ~vdim ~p ~cells_c ~cells_v =
  let pdim = cdim + vdim in
  let inside d a b = if d < cdim then a else b in
  let grid =
    Grid.make
      ~cells:(Array.init pdim (fun d -> inside d cells_c cells_v))
      ~lower:(Array.init pdim (fun d -> inside d 0.0 (-5.0)))
      ~upper:(Array.init pdim (fun d -> inside d 4.0 5.0))
  in
  Layout.make ~cdim ~vdim ~family:Modal.Serendipity ~poly_order:p ~grid

(* A seeded drifting, density-modulated Lorentzian-squared: smooth, not
   polynomial, and free of libm calls. *)
let seeded_f ~seed ~cdim ~vdim =
  let st = Random.State.make [| seed; cdim; vdim |] in
  let a = Array.init cdim (fun _ -> Random.State.float st 0.2) in
  let u = Array.init vdim (fun _ -> Random.State.float st 1.0 -. 0.5) in
  let vt = 0.8 +. Random.State.float st 0.5 in
  fun ~pos ~vel ->
    let n = ref 1.0 and r = ref 1.0 in
    Array.iteri (fun i x -> n := !n +. (a.(i) *. x *. (4.0 -. x))) pos;
    Array.iteri
      (fun k v ->
        let d = (v -. u.(k)) /. vt in
        r := !r +. (d *. d))
      vel;
    !n /. (!r *. !r)

let phase_digest ~cdim ~vdim ~p ~cells_c ~cells_v =
  let lay = layout ~cdim ~vdim ~p ~cells_c ~cells_v in
  let f = Field.create lay.Layout.grid ~ncomp:(Layout.num_basis lay) in
  App.project_phase lay ~f:(seeded_f ~seed:31 ~cdim ~vdim) f;
  digest (Field.data f)

let test_project_phase_bitwise () =
  List.iter
    (fun ((cdim, vdim, p, cells_c, cells_v), want) ->
      let have = phase_digest ~cdim ~vdim ~p ~cells_c ~cells_v in
      if have <> want then
        Alcotest.failf "%dX%dV p=%d project_phase: digest %s, pinned %s" cdim
          vdim p have want)
    [
      ((2, 3, 2, 2, 4), "a46e8b30a44f17b4595bb46e6f8511b2");
      ((2, 2, 1, 4, 16), "689518f949e37676f8a768a7ed08186b");
      ((1, 1, 2, 32, 47), "e25e37d248ab9ffd4cceaafdde4907b6");
    ]

let test_project_config_bitwise () =
  let lay = layout ~cdim:2 ~vdim:2 ~p:2 ~cells_c:3 ~cells_v:2 in
  let em = Field.create lay.Layout.cgrid ~ncomp:(8 * Layout.num_cbasis lay) in
  App.project_config lay ~ncomp_vec:8 em ~f:(fun x ->
      Array.init 8 (fun c ->
          let s = float_of_int (c + 1) in
          (s *. x.(0)) -. (x.(1) *. x.(1) /. (s +. x.(0)))));
  Alcotest.(check string) "8-component project_config"
    "aeaf1fab4d0b76e72bb924cdc824b2fd"
    (digest (Field.data em))

(* The user's vector function runs once per Gauss point per cell, not once
   per component: calls = Gauss points x cells. *)
let test_project_config_calls () =
  let lay = layout ~cdim:2 ~vdim:2 ~p:2 ~cells_c:3 ~cells_v:2 in
  let em = Field.create lay.Layout.cgrid ~ncomp:(8 * Layout.num_cbasis lay) in
  let calls = ref 0 in
  App.project_config lay ~ncomp_vec:8 em ~f:(fun x ->
      incr calls;
      Array.make 8 x.(0));
  (* the default rule: poly_order + 3 points per dimension *)
  let points = Dg_util.Combi.pow_int (2 + 3) lay.Layout.cdim in
  Alcotest.(check int) "one call per Gauss point per cell"
    (points * Grid.num_cells lay.Layout.cgrid)
    !calls

let test_poisson_e_bitwise () =
  let module Sc = Dg_scenarios.Scenarios in
  let app = App.create ((Sc.find_exn "landau").Sc.spec Sc.default_knobs) in
  Alcotest.(check string) "landau E after create"
    "6e21ca90e9c0bc38e4704bd8030a7fae"
    (digest (Field.data (App.em_field app)))

let test_bgk_rhs_bitwise () =
  let module Bgk = Dg_collisions.Bgk in
  let lay = layout ~cdim:1 ~vdim:2 ~p:2 ~cells_c:4 ~cells_v:6 in
  let np = Layout.num_basis lay in
  let f = Field.create lay.Layout.grid ~ncomp:np in
  App.project_phase lay ~f:(seeded_f ~seed:32 ~cdim:1 ~vdim:2) f;
  let bgk = Bgk.create ~nu:0.7 lay in
  Bgk.update_prim bgk ~f;
  let out = Field.create lay.Layout.grid ~ncomp:np in
  Bgk.rhs bgk ~f ~out;
  Alcotest.(check string) "1X2V p=2 BGK rhs"
    "15cbb55bfaf786b158912da1b7455008" (digest (Field.data out))

let () =
  Alcotest.run "dg_app"
    [
      ( "conservation",
        [
          Alcotest.test_case "VM central: mass+energy" `Quick test_vm_conservation_central;
          Alcotest.test_case "VM upwind: mass" `Quick test_vm_upwind_mass;
          Alcotest.test_case "Ampere central" `Quick test_ampere_conservation;
          Alcotest.test_case "LBO in the loop" `Quick test_collisional_app;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "two species" `Quick test_two_species;
          Alcotest.test_case "dof per step" `Quick test_dof_per_step;
          Alcotest.test_case "dt suggestion" `Quick test_suggest_dt_positive;
        ] );
      ( "projection bitwise",
        [
          Alcotest.test_case "project_phase" `Quick test_project_phase_bitwise;
          Alcotest.test_case "project_config" `Quick test_project_config_bitwise;
          Alcotest.test_case "project_config calls f once per point" `Quick
            test_project_config_calls;
          Alcotest.test_case "Poisson_es E" `Quick test_poisson_e_bitwise;
          Alcotest.test_case "BGK rhs" `Quick test_bgk_rhs_bitwise;
        ] );
    ]
