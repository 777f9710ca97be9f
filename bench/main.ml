(* The paper's evaluation, table by table: regenerates the tables and
   figures of the paper (see DESIGN.md for the experiment index and
   EXPERIMENTS.md for paper-vs-measured numbers) and prints them.

     dune exec bench/main.exe            # everything at container scale
     dune exec bench/main.exe -- fig2    # one experiment
     subcommands: fig1 fig2 table1 efficiency fig3 fig5 conservation
                  ablation sweep resilience guard all

   An unknown name exits 1.  The repo's benchmark, with per-layer
   metrics and a machine-readable schema, is bench/profile (see its
   README). *)

module Layout = Dg_kernels.Layout
module Modal = Dg_basis.Modal
module Grid = Dg_grid.Grid
module Field = Dg_grid.Field
module Solver = Dg_vlasov.Solver
module Nodal = Dg_nodal.Nodal_solver
module Tensors = Dg_kernels.Tensors
module Sparse = Dg_kernels.Sparse
module Codegen = Dg_codegen.Codegen
module Moments = Dg_moments.Moments
module Stats = Dg_util.Stats
module Scenarios = Dg_scenarios.Scenarios

let pr = Printf.printf
let section title = pr "\n===== %s =====\n%!" title

(* --- common builders ----------------------------------------------------- *)

(* The registry's Vlasov-Ampere Landau run at 16 x 32 cells: the state the
   resilience and guard tables time. *)
let landau_ampere_spec () =
  (Scenarios.find_exn "landau_ampere").Scenarios.spec
    (Scenarios.knobs ~cells_x:16 ~cells_v:32 ())

let make_layout ?(cells_c = 4) ?(cells_v = 4) ~cdim ~vdim ~family ~p () =
  let pdim = cdim + vdim in
  let cells = Array.init pdim (fun d -> if d < cdim then cells_c else cells_v) in
  let lower = Array.init pdim (fun d -> if d < cdim then 0.0 else -2.0) in
  let upper = Array.init pdim (fun d -> if d < cdim then 6.28 else 2.0) in
  Layout.make ~cdim ~vdim ~family ~poly_order:p ~grid:(Grid.make ~cells ~lower ~upper)

let phase_bcs (lay : Layout.t) =
  Array.init lay.Layout.pdim (fun d ->
      if d < lay.Layout.cdim then (Field.Periodic, Field.Periodic)
      else (Field.Zero, Field.Zero))

(* Seeds are required and distinct per call site, so no two benchmarks
   accidentally share input data (and a reseeding bug cannot hide). *)
let fill_random ~seed f =
  let rng = Random.State.make [| seed |] in
  Grid.iter_cells (Field.grid f) (fun _ c ->
      for k = 0 to Field.ncomp f - 1 do
        Field.set f c k (Random.State.float rng 2.0 -. 1.0)
      done);
  f

let random_field ~seed grid ~ncomp = fill_random ~seed (Field.create grid ~ncomp)

(* Phase-space fields as the app builds them (no velocity ghosts). *)
let phase_field (lay : Layout.t) ~ncomp =
  Field.create_phase ~cdim:lay.Layout.cdim lay.Layout.grid ~ncomp

let random_phase ~seed lay ~ncomp = fill_random ~seed (phase_field lay ~ncomp)

let random_em (lay : Layout.t) =
  let nc = Layout.num_cbasis lay in
  let em = random_field ~seed:7 lay.Layout.cgrid ~ncomp:(8 * nc) in
  Field.sync_ghosts em
    (Array.make lay.Layout.cdim (Field.Periodic, Field.Periodic));
  em

(* Seconds per call of [f]: the fastest of ten samples, each autoscaled
   to >= 20 ms (the fast tail, as bench/profile takes it).  The host is
   shared and interference only ever adds time, so the fast tail reads
   the code's own cost where a median reads the neighbours' load. *)
let time_per_call f =
  let t0 = Unix.gettimeofday () in
  f ();
  let once = Unix.gettimeofday () -. t0 in
  let iters = max 1 (int_of_float (0.02 /. Float.max 1e-9 once)) in
  let sample () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int iters
  in
  Array.fold_left Float.min infinity (Array.init 10 (fun _ -> sample ()))

(* --- Fig. 1: kernel multiplication counts -------------------------------- *)

let fig1 () =
  section "Fig. 1 - generated kernel and multiplication counts (1X2V p=1 tensor)";
  let lay = make_layout ~cdim:1 ~vdim:2 ~family:Modal.Tensor ~p:1 () in
  let src, st =
    Codegen.emit_streaming_volume_off lay ~dir:0 ~name:"vol_stream_1x2v_p1"
  in
  let m_stream = st.Codegen.raw_mults in
  let accel_mults vdir =
    let support = Tensors.acceleration_support lay ~vdir in
    Codegen.mult_count_t3 (Tensors.volume lay.Layout.basis ~support ~dir:vdir)
  in
  let m_total = m_stream + accel_mults 1 + accel_mults 2 in
  pr "generated volume kernel (streaming part):\n%s\n" src;
  pr "multiplications: streaming %d, + acceleration dirs %d + %d  => total %d\n"
    m_stream (accel_mults 1) (accel_mults 2) m_total;
  pr "alias-free nodal quadrature estimate for the same update: %d\n"
    (Codegen.nodal_mult_estimate lay);
  pr "(paper: ~70 modal vs ~250 nodal multiplications)\n"

(* --- Fig. 2: per-cell update cost vs N_p --------------------------------- *)

type fig2_row = {
  label : string;
  np : int;
  t_stream : float; (* ns per cell *)
  t_total : float;
}

let fig2_configs =
  (* (cdim, vdim, p, cells per config dim, cells per velocity dim) *)
  [
    (1, 1, 1, 16, 16);
    (1, 1, 2, 16, 16);
    (1, 1, 3, 12, 12);
    (1, 2, 1, 8, 8);
    (1, 2, 2, 8, 8);
    (1, 3, 1, 5, 5);
    (1, 3, 2, 4, 4);
    (2, 2, 1, 5, 5);
    (2, 2, 2, 4, 4);
    (2, 3, 1, 3, 3);
    (2, 3, 2, 3, 3);
    (3, 3, 1, 2, 2);
  ]

let fig2_families ~pdim ~p =
  (* the full tensor basis at high dim x order makes the build (not the
     run) slow; the paper's point is complexity is robust to family *)
  if pdim >= 5 && p >= 2 then [ Modal.Maximal_order; Modal.Serendipity ]
  else [ Modal.Maximal_order; Modal.Serendipity; Modal.Tensor ]

let fig2_measure ~cdim ~vdim ~p ~cells_c ~cells_v family =
  let lay = make_layout ~cells_c ~cells_v ~cdim ~vdim ~family ~p () in
  let np = Layout.num_basis lay in
  let solver = Solver.create ~flux:Solver.Upwind ~qm:(-1.0) lay in
  let f = random_phase ~seed:11 lay ~ncomp:np in
  Field.sync_ghosts f (phase_bcs lay);
  let em = random_em lay in
  let out = phase_field lay ~ncomp:np in
  let ncells = float_of_int (Grid.num_cells lay.Layout.grid) in
  let t_stream = time_per_call (fun () -> Solver.rhs solver ~f ~em:None ~out) in
  let t_total = time_per_call (fun () -> Solver.rhs solver ~f ~em:(Some em) ~out) in
  ignore family;
  {
    label = Printf.sprintf "%dx%dv p=%d" cdim vdim p;
    np;
    t_stream = t_stream /. ncells *. 1e9;
    t_total = t_total /. ncells *. 1e9;
  }

let fig2 () =
  section "Fig. 2 - per-cell update time vs DOFs per cell N_p";
  pr "%-12s %-14s %6s %14s %14s\n" "dims" "basis" "Np" "stream ns/cell" "total ns/cell";
  let rows = ref [] in
  List.iter
    (fun (cdim, vdim, p, cells_c, cells_v) ->
      List.iter
        (fun family ->
          let r = fig2_measure ~cdim ~vdim ~p ~cells_c ~cells_v family in
          rows := r :: !rows;
          pr "%-12s %-14s %6d %14.0f %14.0f\n%!" r.label
            (Modal.family_name family) r.np r.t_stream r.t_total)
        (fig2_families ~pdim:(cdim + vdim) ~p))
    fig2_configs;
  let rows = Array.of_list (List.rev !rows) in
  let fit sel =
    let xs = Array.map (fun r -> float_of_int r.np) rows in
    let ys = Array.map sel rows in
    snd (Stats.power_fit xs ys)
  in
  pr "\nfitted scaling  t ~ Np^alpha:  streaming alpha = %.2f, total alpha = %.2f\n"
    (fit (fun r -> r.t_stream))
    (fit (fun r -> r.t_total));
  pr "(paper: at worst ~O(Np^2), independent of dimensionality and basis family)\n"

(* --- Table I: modal vs nodal 2X3V two-species Vlasov-Maxwell ------------- *)

let table1 () =
  section "Table I - alias-free nodal vs modal, 2X3V p=2 Serendipity, two species";
  let cells = [| 4; 4; 4; 6; 6 |] in
  let lower = [| 0.0; 0.0; -2.0; -2.0; -2.0 |] in
  let upper = [| 6.28; 6.28; 2.0; 2.0; 2.0 |] in
  let grid = Grid.make ~cells ~lower ~upper in
  let lay =
    Layout.make ~cdim:2 ~vdim:3 ~family:Modal.Serendipity ~poly_order:2 ~grid
  in
  let np = Layout.num_basis lay in
  let nc = Layout.num_cbasis lay in
  pr "grid %s, %d phase DOF/cell (paper: 112), %d cells\n%!"
    (Fmt.str "%a" Grid.pp grid) np (Grid.num_cells grid);
  let bcs = phase_bcs lay in
  let em_bcs = Array.make 2 (Field.Periodic, Field.Periodic) in
  let em = random_em lay in
  let mx =
    Dg_maxwell.Maxwell.create ~flux:Dg_lindg.Lindg.Central ~chi:0.0 ~gamma:0.0
      ~basis:lay.Layout.cbasis ~grid:lay.Layout.cgrid ()
  in
  let current = Field.create lay.Layout.cgrid ~ncomp:(3 * nc) in
  (* ---- modal ---- *)
  let msolver = Solver.create ~flux:Solver.Upwind ~qm:(-1.0) lay in
  let msolver2 = Solver.create ~flux:Solver.Upwind ~qm:(1.0 /. 25.0) lay in
  let moments = Moments.make lay in
  let f1 = random_phase ~seed:2 lay ~ncomp:np in
  let f2 = random_phase ~seed:3 lay ~ncomp:np in
  let state = [ f1; f2; em ] in
  let modal_vlasov_time = ref 0.0 in
  let rhs ~time:_ st outs =
    match (st, outs) with
    | [ a; b; e ], [ oa; ob; oe ] ->
        Field.sync_ghosts a bcs;
        Field.sync_ghosts b bcs;
        Field.sync_ghosts e em_bcs;
        let t0 = Unix.gettimeofday () in
        Solver.rhs msolver ~f:a ~em:(Some e) ~out:oa;
        Solver.rhs msolver2 ~f:b ~em:(Some e) ~out:ob;
        modal_vlasov_time := !modal_vlasov_time +. (Unix.gettimeofday () -. t0);
        Field.fill current 0.0;
        Moments.accumulate_current moments ~charge:(-1.0) ~f:a ~out:current;
        Moments.accumulate_current moments ~charge:1.0 ~f:b ~out:current;
        Dg_maxwell.Maxwell.rhs mx ~em:e ~out:oe;
        Dg_maxwell.Maxwell.add_current_source mx ~current ~out:oe
    | _ -> assert false
  in
  let stepper = Dg_time.Stepper.create ~scheme:Dg_time.Stepper.Ssp_rk3 ~like:state in
  (* warm + measure one step *)
  let dt = 1e-4 in
  Dg_time.Stepper.step stepper ~rhs ~time:0.0 ~dt state;
  modal_vlasov_time := 0.0;
  let t0 = Unix.gettimeofday () in
  Dg_time.Stepper.step stepper ~rhs ~time:0.0 ~dt state;
  let modal_total = Unix.gettimeofday () -. t0 in
  let modal_vlasov = !modal_vlasov_time in
  (* ---- nodal ---- *)
  let nsolver = Nodal.create ~flux:Nodal.Upwind ~qm:(-1.0) lay in
  let nsolver2 = Nodal.create ~flux:Nodal.Upwind ~qm:(1.0 /. 25.0) lay in
  let nnp = Nodal.num_nodes nsolver in
  let g1 = random_phase ~seed:2 lay ~ncomp:nnp in
  let g2 = random_phase ~seed:3 lay ~ncomp:nnp in
  let nstate = [ g1; g2; em ] in
  let nodal_vlasov_time = ref 0.0 in
  let nrhs ~time:_ st outs =
    match (st, outs) with
    | [ a; b; e ], [ oa; ob; oe ] ->
        Field.sync_ghosts a bcs;
        Field.sync_ghosts b bcs;
        Field.sync_ghosts e em_bcs;
        let t0 = Unix.gettimeofday () in
        Nodal.rhs nsolver ~f:a ~em:(Some e) ~out:oa;
        Nodal.rhs nsolver2 ~f:b ~em:(Some e) ~out:ob;
        nodal_vlasov_time := !nodal_vlasov_time +. (Unix.gettimeofday () -. t0);
        Field.fill current 0.0;
        Nodal.accumulate_current nsolver ~charge:(-1.0) ~f:a ~out:current;
        Nodal.accumulate_current nsolver2 ~charge:1.0 ~f:b ~out:current;
        Dg_maxwell.Maxwell.rhs mx ~em:e ~out:oe;
        Dg_maxwell.Maxwell.add_current_source mx ~current ~out:oe
    | _ -> assert false
  in
  let nstepper = Dg_time.Stepper.create ~scheme:Dg_time.Stepper.Ssp_rk3 ~like:nstate in
  let t0 = Unix.gettimeofday () in
  Dg_time.Stepper.step nstepper ~rhs:nrhs ~time:0.0 ~dt nstate;
  let nodal_total = Unix.gettimeofday () -. t0 in
  let nodal_vlasov = !nodal_vlasov_time in
  pr "\n%-28s %14s %14s\n" "" "nodal" "modal";
  pr "%-28s %14.3f %14.3f\n" "total s/step" nodal_total modal_total;
  pr "%-28s %14.3f %14.3f\n" "Vlasov-solve s/step" nodal_vlasov modal_vlasov;
  pr "%-28s %14s %14s\n" "" "" "";
  pr "total time reduction : %.1fx   (paper: ~16x)\n" (nodal_total /. modal_total);
  pr "Vlasov time reduction: %.1fx   (paper: ~17x)\n" (nodal_vlasov /. modal_vlasov)

(* --- efficiency: DOFs updated per second per core ------------------------ *)

let efficiency () =
  section "Efficiency - DOFs per second per core (2X3V p=2 Serendipity)";
  let lay =
    make_layout ~cells_c:4 ~cells_v:6 ~cdim:2 ~vdim:3 ~family:Modal.Serendipity
      ~p:2 ()
  in
  let np = Layout.num_basis lay in
  let ncells = Grid.num_cells lay.Layout.grid in
  let solver = Solver.create ~flux:Solver.Upwind ~qm:(-1.0) lay in
  let f = random_phase ~seed:5 lay ~ncomp:np in
  Field.sync_ghosts f (phase_bcs lay);
  let em = random_em lay in
  let out = phase_field lay ~ncomp:np in
  let t_rhs = time_per_call (fun () -> Solver.rhs solver ~f ~em:(Some em) ~out) in
  let dofs = float_of_int (np * ncells) in
  pr "forward-Euler Vlasov operator: %.2e DOF/s/core  (paper: 1.67e7)\n"
    (dofs /. t_rhs);
  (* with the Fokker-Planck (LBO) operator included *)
  let lbo = Dg_collisions.Lbo.create ~nu:1.0 lay in
  Dg_collisions.Lbo.update_prim lbo ~f;
  let t_both =
    time_per_call (fun () ->
        Solver.rhs solver ~f ~em:(Some em) ~out;
        Dg_collisions.Lbo.rhs lbo ~f ~out)
  in
  pr "with Dougherty Fokker-Planck : %.2e DOF/s/core  (paper: ~8e6, i.e. ~2x cost)\n"
    (dofs /. t_both);
  pr "collision-operator cost ratio: %.2fx\n" (t_both /. t_rhs)

(* --- Fig. 3: weak and strong scaling ------------------------------------- *)

let fig3 () =
  section "Fig. 3 - weak/strong scaling (measured halo machinery + calibrated model)";
  (* measured: the decomposition + halo exchange of this implementation on a
     small 6D problem, one core *)
  let pdim = 6 in
  let cells = [| 4; 4; 4; 4; 4; 4 |] in
  let grid =
    Grid.make ~cells ~lower:(Array.make pdim 0.0) ~upper:(Array.make pdim 1.0)
  in
  let np = 64 in
  let d = Dg_par.Decomp.make ~global:grid ~cdim:3 ~blocks_per_dim:[| 2; 2; 2 |] ~ncomp:np in
  let src = fill_random ~seed:6 (Field.create_phase ~cdim:3 grid ~ncomp:np) in
  Dg_par.Decomp.scatter d ~src;
  let t_halo = time_per_call (fun () -> ignore (Dg_par.Decomp.exchange_halos d)) in
  let moved = Dg_par.Decomp.exchange_halos d in
  pr "measured halo exchange: %d floats in %.3f ms  (%.2e s/byte)\n" moved
    (t_halo *. 1e3)
    (t_halo /. (float_of_int moved *. 8.0));
  (* per-DOF compute cost, measured on a small 3X3V p=1 operator *)
  let t_dof =
    let lay =
      make_layout ~cells_c:3 ~cells_v:4 ~cdim:3 ~vdim:3
        ~family:Modal.Serendipity ~p:1 ()
    in
    let np = Layout.num_basis lay in
    let solver = Solver.create ~flux:Solver.Upwind ~qm:(-1.0) lay in
    let f = random_phase ~seed:8 lay ~ncomp:np in
    Field.sync_ghosts f (phase_bcs lay);
    let em = random_em lay in
    let out = phase_field lay ~ncomp:np in
    let t = time_per_call (fun () -> Solver.rhs solver ~f ~em:(Some em) ~out) in
    t /. float_of_int (np * Grid.num_cells lay.Layout.grid)
  in
  pr "measured compute cost: %.2e s/DOF for this interpreted OCaml build\n" t_dof;
  pr
    "NOTE: at this per-DOF cost communication is negligible (compute-bound\n\
    \ everywhere); the curves below use the paper-calibrated per-DOF cost\n\
    \ (%.1e s/DOF, CAS-generated C++ on KNL) so the compute/communication\n\
    \ balance — and hence the *shape* of Fig. 3 — matches the published\n\
    \ machine.  Swap in the measured value via Scaling_model params to see\n\
    \ this implementation's projection.\n"
    Dg_par.Model.default.Dg_par.Model.t_dof;
  let params = Dg_par.Model.default in
  let nodes = [ 1; 8; 64; 512; 4096 ] in
  pr "\nweak scaling, modal 6D p=1 (block 8x8x8 x 16^3/node, paper setup):\n";
  pr "%8s %18s %14s\n" "nodes" "norm. time/step" "comm fraction";
  List.iter
    (fun pt ->
      pr "%8d %18.3f %14.2f\n" pt.Dg_par.Model.nodes pt.Dg_par.Model.normalized
        pt.Dg_par.Model.comm_fraction)
    (Dg_par.Model.weak_scaling params ~block_cfg:[| 8; 8; 8 |]
       ~vcells:[| 16; 16; 16 |] ~np:64 ~node_counts:nodes);
  pr "(paper: near-flat, <= 25%% halo cost at the largest run)\n";
  pr "\nweak scaling, nodal 1X3V p=4 (N_p=136, ~17x higher per-DOF cost):\n";
  pr "%8s %18s %14s\n" "nodes" "norm. time/step" "comm fraction";
  List.iter
    (fun pt ->
      pr "%8d %18.3f %14.2f\n" pt.Dg_par.Model.nodes pt.Dg_par.Model.normalized
        pt.Dg_par.Model.comm_fraction)
    (Dg_par.Model.weak_scaling
       { params with Dg_par.Model.t_dof = t_dof *. 17.0 }
       ~block_cfg:[| 64 |] ~vcells:[| 8; 8; 8 |] ~np:136
       ~node_counts:[ 1; 8; 64; 128 ]);
  pr "\nstrong scaling, modal 6D p=1 (32^3 x 8^3 global, base 8 nodes):\n";
  pr "%8s %18s %10s %14s\n" "nodes" "norm. time/step" "speedup" "comm fraction";
  List.iter
    (fun pt ->
      pr "%8d %18.5f %10.0f %14.2f\n" pt.Dg_par.Model.nodes
        pt.Dg_par.Model.normalized
        (1.0 /. pt.Dg_par.Model.normalized)
        pt.Dg_par.Model.comm_fraction)
    (Dg_par.Model.strong_scaling params ~global_cfg:[| 32; 32; 32 |]
       ~vcells:[| 8; 8; 8 |] ~np:64 ~base_nodes:8
       ~node_counts:[ 8; 64; 512; 4096 ]);
  pr "(paper: ~60x of the ideal 512x, ~80%% of time in halo exchange at 4096)\n"

(* --- Fig. 5: counter-streaming beams energy milestones ------------------- *)

let fig5 ?(tend = 12.0) () =
  section "Fig. 5 - counter-streaming beams 2X2V (reduced run; full panels via examples/weibel_2x2v.exe)";
  let spec =
    (Scenarios.find_exn "weibel_2x2v").Scenarios.spec
      (Scenarios.knobs ~cells_x:6 ~cells_v:8 ~poly_order:1 ())
  in
  let app = Dg_app.Vm_app.create spec in
  let ke0 = Dg_app.Vm_app.kinetic_energy app 0 in
  let fe0 = Dg_app.Vm_app.field_energy app in
  pr "%8s %14s %14s %14s\n" "t" "kinetic" "field(EM)" "total";
  let last_print = ref (-1.0) in
  let report app =
    let t = Dg_app.Vm_app.time app in
    if t -. !last_print >= tend /. 6.0 then begin
      last_print := t;
      let ke = Dg_app.Vm_app.kinetic_energy app 0 in
      let fe = Dg_app.Vm_app.field_energy app in
      pr "%8.2f %14.6e %14.6e %14.6e\n%!" t ke fe (ke +. fe)
    end
  in
  pr "%8.2f %14.6e %14.6e %14.6e\n%!" 0.0 ke0 fe0 (ke0 +. fe0);
  Dg_app.Vm_app.run app ~tend ~on_step:report;
  let ke1 = Dg_app.Vm_app.kinetic_energy app 0 in
  let fe1 = Dg_app.Vm_app.field_energy app in
  pr
    "kinetic -> field conversion: dKE = %.3e, dFE = %+.3e (paper: beam kinetic \
     energy feeds the instability zoo, then thermalizes)\n"
    (ke1 -. ke0) (fe1 -. fe0)

(* --- conservation table -------------------------------------------------- *)

let conservation () =
  section "Conservation (paper Section II properties)";
  let run flux =
    let landau =
      (Scenarios.find_exn "landau_ampere").Scenarios.spec
        (Scenarios.knobs ~cells_x:8 ~cells_v:16 ())
    in
    let spec =
      {
        landau with
        Dg_app.Vm_app.field_model = Dg_app.Vm_app.Full_maxwell;
        vlasov_flux = flux;
      }
    in
    let app = Dg_app.Vm_app.create spec in
    let m0 = Dg_app.Vm_app.total_mass app 0 in
    let e0 = Dg_app.Vm_app.total_energy app in
    for _ = 1 to 100 do
      ignore (Dg_app.Vm_app.step app)
    done;
    ( Float.abs ((Dg_app.Vm_app.total_mass app 0 -. m0) /. m0),
      (Dg_app.Vm_app.total_energy app -. e0) /. e0 )
  in
  let dm_c, de_c = run Solver.Central in
  let dm_u, de_u = run Solver.Upwind in
  pr "%-22s %16s %16s\n" "flux" "mass drift" "energy drift";
  pr "%-22s %16.3e %16.3e\n" "central" dm_c de_c;
  pr "%-22s %16.3e %16.3e\n" "upwind (penalty)" dm_u de_u;
  pr "(100 SSP-RK3 steps; both drifts here are the O(dt^4) temporal error)\n";
  (* the semi-discrete statement on rough data: total particle+field energy
     rate is exactly zero for central fluxes and strictly negative for
     upwind (the spatial scheme itself conserves; cf. paper Eq. 9) *)
  let rate flux =
    let lay =
      make_layout ~cells_c:4 ~cells_v:8 ~cdim:1 ~vdim:1
        ~family:Modal.Serendipity ~p:2 ()
    in
    let np = Layout.num_basis lay in
    let nc = Layout.num_cbasis lay in
    let mass = 1.0 and charge = -1.0 in
    let solver = Solver.create ~flux ~qm:(charge /. mass) lay in
    let f = random_phase ~seed:4 lay ~ncomp:np in
    (* keep the velocity boundary clear so zero-flux BCs are exact *)
    Grid.iter_cells lay.Layout.grid (fun _ c ->
        if c.(1) = 0 || c.(1) = (Grid.cells lay.Layout.grid).(1) - 1 then
          for k = 0 to np - 1 do
            Field.set f c k 0.0
          done);
    Field.sync_ghosts f (phase_bcs lay);
    let em = random_em lay in
    let out = phase_field lay ~ncomp:np in
    Solver.rhs solver ~f ~em:(Some em) ~out;
    let mom = Moments.make lay in
    let ke_dot = Moments.total_kinetic_energy mom ~mass ~f:out in
    let mx =
      Dg_maxwell.Maxwell.create ~flux:Dg_lindg.Lindg.Central ~chi:0.0
        ~gamma:0.0 ~basis:lay.Layout.cbasis ~grid:lay.Layout.cgrid ()
    in
    let j = Field.create lay.Layout.cgrid ~ncomp:(3 * nc) in
    Moments.accumulate_current mom ~charge ~f ~out:j;
    let em_out = Field.create lay.Layout.cgrid ~ncomp:(8 * nc) in
    Dg_maxwell.Maxwell.rhs mx ~em ~out:em_out;
    Dg_maxwell.Maxwell.add_current_source mx ~current:j ~out:em_out;
    (* field-energy rate: <(E,B), d(E,B)/dt> *)
    let fe_dot = ref 0.0 in
    let jac = Grid.cell_volume lay.Layout.cgrid /. 2.0 in
    Grid.iter_cells lay.Layout.cgrid (fun _ c ->
        let eb = Field.offset em c and ob = Field.offset em_out c in
        for k = 0 to (6 * nc) - 1 do
          fe_dot := !fe_dot +. ((Field.data em).(eb + k) *. (Field.data em_out).(ob + k))
        done);
    ke_dot +. (!fe_dot *. jac)
  in
  let r_c = rate Solver.Central and r_u = rate Solver.Upwind in
  pr "\nsemi-discrete total-energy rate on rough data:\n";
  pr "%-22s %16.6e   (exactly 0 up to roundoff)\n" "central" r_c;
  pr "%-22s %16.6e   (also ~0: |v|^2 is continuous across faces, so the\n"
    "upwind (penalty)" r_u;
  pr "%-22s %16s    Vlasov penalty dissipates the L2 norm of f, not the\n" "" "";
  pr "%-22s %16s    energy moment - the paper needs central fluxes only\n" "" "";
  pr "%-22s %16s    for Maxwell, which is what the Maxwell tests check)\n" "" "";
  pr "(paper: mass exact always; total particle+field energy exact with\n";
  pr " central fluxes for Maxwell; Vlasov upwinding dissipates ||f||_L2)\n"

(* --- ablation: interpreted vs generated vs dense ------------------------- *)

let ablation () =
  section "Ablation - sparse interpreted vs generated unrolled vs dense tensor";
  let lay = make_layout ~cdim:1 ~vdim:2 ~family:Modal.Serendipity ~p:2 () in
  let np = Layout.num_basis lay in
  let dir = 1 in
  let support = Tensors.acceleration_support lay ~vdir:dir in
  let vol = Tensors.volume lay.Layout.basis ~support ~dir in
  let rng = Random.State.make [| 3 |] in
  let f = Array.init np (fun _ -> Random.State.float rng 2.0 -. 1.0) in
  let alpha = Array.init np (fun _ -> Random.State.float rng 2.0 -. 1.0) in
  let out = Array.make np 0.0 in
  let n_inner = 1000 in
  let t_sparse =
    time_per_call (fun () ->
        for _ = 1 to n_inner do
          Sparse.apply_t3 vol ~scale:1.0 alpha f out
        done)
    /. float_of_int n_inner
  in
  let module Gen = Dg_genkernels.Kernels in
  let vol_id =
    match
      (Option.get
         (Gen.find ~family:"serendipity" ~poly_order:2 ~cdim:1 ~vdim:2 ~dir:1))
        .Gen.vol
    with
    | Gen.Alpha id -> id
    | Gen.Stream _ -> invalid_arg "ablation: dir 1 is a velocity direction"
  in
  let t_gen =
    time_per_call (fun () ->
        for _ = 1 to n_inner do
          Gen.t3 vol_id ~scale:1.0 alpha f ~foff:0 out ~ooff:0
        done)
    /. float_of_int n_inner
  in
  (* dense: materialize the full Np^3 tensor and contract it *)
  let dense = Array.init np (fun _ -> Array.make_matrix np np 0.0) in
  Array.iteri
    (fun e c -> dense.(vol.Sparse.li.(e)).(vol.Sparse.mi.(e)).(vol.Sparse.ni.(e)) <- c)
    vol.Sparse.cv;
  let t_dense =
    time_per_call (fun () ->
        for _ = 1 to 10 do
          for l = 0 to np - 1 do
            let acc = ref 0.0 in
            for m = 0 to np - 1 do
              for n = 0 to np - 1 do
                acc := !acc +. (dense.(l).(m).(n) *. alpha.(m) *. f.(n))
              done
            done;
            out.(l) <- out.(l) +. !acc
          done
        done)
    /. 10.0
  in
  pr "1X2V p=2 Serendipity acceleration volume kernel (Np=%d, nnz=%d of %d):\n"
    np (Sparse.t3_nnz vol) (np * np * np);
  pr "%-34s %12.0f ns\n" "dense Np^3 contraction" (t_dense *. 1e9);
  pr "%-34s %12.0f ns  (%.0fx over dense)" "interpreted sparse tensor"
    (t_sparse *. 1e9) (t_dense /. t_sparse);
  pr "\n%-34s %12.0f ns  (%.1fx over interpreted)\n" "generated unrolled kernel"
    (t_gen *. 1e9) (t_sparse /. t_gen);
  pr "(the sparsity + unrolling story of paper Section II)\n"

(* --- sweep overhead: the update loop around the kernels ------------------ *)

(* The moment walks against the rhs they serve, on registry scenarios at
   their defaults: ns per phase cell of a warm accumulate_current and
   accumulate_charge of species 0's f, and of a warm, untraced Vm_app.rhs
   of the whole state, and the current's share of that rhs. *)
let sweep_moments () =
  let module App = Dg_app.Vm_app in
  pr "\nmoments:\n%-13s %-9s %-10s %10s %10s %10s %8s\n" "scenario" "layout"
    "grid" "current ns" "charge ns" "rhs ns" "current";
  List.iter
    (fun name ->
      let spec = (Scenarios.find_exn name).Scenarios.spec Scenarios.default_knobs in
      let app = App.create spec in
      let lay = App.layout app in
      let f = App.distribution app 0 in
      let nc = Layout.num_cbasis lay in
      let mom = Moments.make lay in
      let j = Field.create lay.Layout.cgrid ~ncomp:(3 * nc) in
      let rho = Field.create lay.Layout.cgrid ~ncomp:nc in
      let state =
        List.init (List.length spec.App.species) (App.distribution app)
        @ [ App.em_field app ]
      in
      let outs = List.map Field.clone state in
      let cells = float_of_int (Grid.num_cells lay.Layout.grid) in
      let per_cell g = time_per_call g /. cells in
      let t_j = per_cell (fun () -> Moments.accumulate_current mom ~charge:(-1.0) ~f ~out:j) in
      let t_rho = per_cell (fun () -> Moments.accumulate_charge mom ~charge:(-1.0) ~f ~out:rho) in
      let t_rhs = per_cell (fun () -> App.rhs app ~time:0.0 state outs) in
      let cells_of d0 d1 =
        let c = Grid.cells lay.Layout.grid in
        if d1 - d0 = 1 then string_of_int c.(d0)
        else Printf.sprintf "%d^%d" c.(d0) (d1 - d0)
      in
      pr "%-13s %-9s %-10s %10.1f %10.1f %10.1f %7.1f%%\n" name
        (Printf.sprintf "%dX%dV p=%d" lay.Layout.cdim lay.Layout.vdim
           (Modal.poly_order lay.Layout.basis))
        (Printf.sprintf "%sx%s" (cells_of 0 lay.Layout.cdim)
           (cells_of lay.Layout.cdim lay.Layout.pdim))
        (t_j *. 1e9) (t_rho *. 1e9) (t_rhs *. 1e9) (100.0 *. t_j /. t_rhs))
    [ "landau"; "landau_ampere"; "weibel_2x2v" ];
  pr "(ns per phase cell; current and charge = Moments.accumulate_current and\n\
     \ accumulate_charge of species 0; rhs = Vm_app.rhs of the whole state,\n\
     \ its field solve included; current = the current's share of the rhs)\n"

(* Per Serendipity layout: the time of a cell-direction's kernels called
   in a tight loop on L1-resident blocks (the volume kernel, the face
   flux and both lifts, averaged over the directions), the same for the
   batch kernels where the layout has them (per cell of a 4-cell batch:
   the batched volume kernel, Sweep.face_flux_x4 and each lane's lifts),
   against a warm, untraced Solver.rhs with an EM field and the upwind
   flux, per cell-direction; and the minor words that rhs allocates per
   cell-direction.  The ratio is the sweep's overhead factor over the
   kernels it runs.  Then the isolated times of each direction that has
   batch kernels, one cell at a time and batched, beside its mults. *)
let sweep () =
  section "Sweep overhead - isolated kernels vs the whole sweep (Serendipity)";
  let module Sweep = Dg_vlasov.Sweep in
  let module K = Dg_genkernels.Kernels in
  let lanes = Sweep.lanes in
  let per_dir = ref [] in
  pr "%-9s %-10s %10s %10s %7s %12s %7s %10s\n" "layout" "grid" "scalar ns"
    "x4 ns" "x4 gain" "sweep ns/cd" "ratio" "words/cd";
  List.iter
    (fun (cdim, vdim, p, cells_c, cells_v) ->
      let lay =
        make_layout ~cells_c ~cells_v ~cdim ~vdim ~family:Modal.Serendipity ~p
          ()
      in
      let np = Layout.num_basis lay and pdim = lay.Layout.pdim in
      let rng = Random.State.make [| 23 |] in
      let rand n = Array.init n (fun _ -> Random.State.float rng 2.0 -. 1.0) in
      (* isolated: a batch's cells and their lower neighbours, one block
         apart; a scalar cell-direction uses the first two *)
      let fblk = rand ((lanes + 1) * np) in
      let oblk = Array.make ((lanes + 1) * np) 0.0 in
      let alpha4 = rand (lanes * np) in
      let alpha = Array.sub alpha4 0 np in
      let lams = Array.make lanes 0.5 in
      let n_inner = 1000 in
      let ops =
        Array.init pdim (fun dir ->
            Sweep.select ~use_generated:true lay (Tensors.make_dir lay ~dir))
      in
      let t_scalar =
        Array.map
          (fun (ops : Sweep.ops) ->
            let face = Array.make (3 * ops.Sweep.nface) 0.0 in
            let gof = 2 * ops.Sweep.nface in
            time_per_call (fun () ->
                for _ = 1 to n_inner do
                  (match ops.Sweep.vol with
                  | Sweep.Stream id ->
                      K.stream id ~wv:0.3 ~dv:0.25 ~rdx2:2.0 fblk ~foff:np oblk
                        ~ooff:np
                  | Sweep.Alpha op ->
                      Sweep.apply_t3 op ~scale:2.0 alpha fblk ~foff:np oblk
                        ~ooff:np);
                  Sweep.face_flux ops ~rdx:1.0 ~lam:0.5 alpha fblk ~foff_l:0
                    ~foff_r:np face;
                  Sweep.apply_t2 ops.Sweep.lift_hi ~scale:(-1.0) face ~foff:gof
                    oblk ~ooff:0;
                  Sweep.apply_t2 ops.Sweep.lift_lo ~scale:1.0 face ~foff:gof
                    oblk ~ooff:np
                done)
            /. float_of_int n_inner)
          ops
      in
      let t_x4 =
        Array.map
          (fun (ops : Sweep.ops) ->
            Option.map
              (fun (b : K.batch) ->
                let nf = ops.Sweep.nface in
                let face4 = Array.make (lanes * 3 * nf) 0.0 in
                let lift op ~scale ~ooff =
                  for k = 0 to lanes - 1 do
                    Sweep.apply_t2 op ~scale face4
                      ~foff:((3 * k * nf) + (2 * nf))
                      oblk ~ooff:(ooff + (k * np))
                  done
                in
                time_per_call (fun () ->
                    for _ = 1 to n_inner / lanes do
                      K.t3_x4 b.K.batch_vol ~scale:2.0 alpha4 ~astep:np fblk
                        ~foff:np ~fstep:np oblk ~ooff:np ~ostep:np;
                      Sweep.face_flux_x4 ops b ~k0:0 ~rdx:1.0 ~lams alpha4 fblk
                        ~foff_l:0 ~foff_r:np ~fstep:np face4;
                      lift ops.Sweep.lift_lo ~scale:1.0 ~ooff:np;
                      lift ops.Sweep.lift_hi ~scale:(-1.0) ~ooff:0
                    done)
                /. float_of_int (n_inner / lanes * lanes))
              ops.Sweep.batch)
          ops
      in
      let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int pdim in
      let iso = mean t_scalar in
      (* what the sweep runs: the batch kernels where a direction has
         them *)
      let x4 =
        if Array.exists Option.is_some t_x4 then
          Some
            (mean
               (Array.map2 (fun x s -> Option.value x ~default:s) t_x4 t_scalar))
        else None
      in
      let name = Printf.sprintf "%dX%dV p=%d" cdim vdim p in
      Array.iteri
        (fun dir x4 ->
          Option.iter
            (fun x4 ->
              let mults = Option.value ~default:0 ops.(dir).Sweep.mults in
              per_dir := (name, dir, mults, t_scalar.(dir), x4) :: !per_dir)
            x4)
        t_x4;
      (* the whole sweep *)
      let solver = Solver.create ~flux:Solver.Upwind ~qm:(-1.0) lay in
      let f = random_phase ~seed:29 lay ~ncomp:np in
      Field.sync_ghosts f (phase_bcs lay);
      let em = random_em lay in
      let out = phase_field lay ~ncomp:np in
      let rhs () = Solver.rhs solver ~f ~em:(Some em) ~out in
      rhs ();
      let w0 = Gc.minor_words () in
      rhs ();
      let words = Gc.minor_words () -. w0 in
      let celldirs = float_of_int (Grid.num_cells lay.Layout.grid * pdim) in
      let t_sweep = time_per_call rhs /. celldirs in
      let grid =
        Printf.sprintf "%d^%dx%d^%d" cells_c cdim cells_v vdim
      in
      let ns t = Printf.sprintf "%.0f" (t *. 1e9) in
      pr "%-9s %-10s %10s %10s %7s %12.0f %7.2f %10.2f\n" name grid (ns iso)
        (Option.fold ~none:"-" ~some:ns x4)
        (Option.fold ~none:"-" ~some:(fun t -> Printf.sprintf "%.2f" (iso /. t)) x4)
        (t_sweep *. 1e9)
        (t_sweep /. Option.value ~default:iso x4)
        (words /. celldirs))
    [
      (1, 1, 1, 32, 48);
      (1, 1, 2, 32, 48);
      (1, 2, 1, 16, 16);
      (1, 2, 2, 16, 16);
      (2, 2, 1, 4, 16);
      (2, 2, 2, 4, 8);
      (2, 3, 1, 2, 4);
      (2, 3, 2, 2, 4);
      (3, 3, 1, 2, 4);
    ];
  pr "(cd = cell-direction; scalar = isolated kernels per cd, volume kernel\n\
     \ + face flux + both lifts on L1-resident blocks, one cell at a time,\n\
     \ averaged over directions; x4 = the same with the directions that have\n\
     \ batch kernels run in 4-cell batches, - where none has; sweep = warm\n\
     \ untraced Solver.rhs with E and B, upwind flux; ratio = sweep / the\n\
     \ isolated kernels it runs)\n";
  if !per_dir <> [] then begin
    pr "\nper batched direction:\n%-9s %4s %7s %10s %10s %7s\n" "layout" "dir"
      "mults" "scalar ns" "x4 ns" "x4 gain";
    List.iter
      (fun (name, dir, mults, t, x4) ->
        pr "%-9s %4d %7d %10.0f %10.0f %7.2f\n" name dir mults (t *. 1e9)
          (x4 *. 1e9) (t /. x4))
      (List.rev !per_dir)
  end;
  sweep_moments ()

(* --- resilience: health-check, rollback/retry, checkpoint cost ----------- *)

let resilience () =
  section "Resilience - rollback/retry overhead and checkpoint write cost";
  let module App = Dg_app.Vm_app in
  let module Retry = Dg_resilience.Retry in
  let module Faults = Dg_resilience.Faults in
  let module Checkpoint = Dg_resilience.Checkpoint in
  let spec = landau_ampere_spec () in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "dg_bench_resil" in
  (* a faulted run: NaN injected at step 5, checkpoints every 10 steps *)
  let app = App.create spec in
  let faults = Faults.none () in
  faults.Faults.nan_step <- Some 5;
  let policy = { Retry.default with Retry.check_every = 5 } in
  let t0 = Unix.gettimeofday () in
  let stats =
    App.run_resilient ~policy ~faults ~checkpoint_every:10 ~checkpoint_dir:dir
      app ~tend:0.5
  in
  let wall = Unix.gettimeofday () -. t0 in
  pr "faulted run: %s  (wall %.3f s)\n"
    (Format.asprintf "%a" Retry.pp_stats stats)
    wall;
  (* isolated checkpoint write cost on the same state *)
  let t_ckpt =
    time_per_call (fun () ->
        ignore (Checkpoint.write ~dir ~step:(App.nsteps app) ~time:(App.time app)
                  [ App.distribution app 0; App.em_field app ]))
  in
  pr "checkpoint write: %.3f ms per call\n" (t_ckpt *. 1e3);
  (* health-scan cost relative to one RK step *)
  let module Health = Dg_resilience.Health in
  let t_scan =
    time_per_call (fun () ->
        ignore (Health.check [ App.distribution app 0; App.em_field app ]))
  in
  let t_step = time_per_call (fun () -> ignore (App.step ~dt:1e-6 app)) in
  pr "health scan: %.1f us  (%.1f%% of one SSP-RK3 step)\n" (t_scan *. 1e6)
    (100.0 *. t_scan /. t_step);
  (* cleanup: bounded temp usage across repeated bench runs *)
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)

(* --- guard: positivity limiter overhead + degradation-ladder escalations -- *)

let guard () =
  section "Guard - positivity-limiter overhead and degradation-ladder escalations";
  let module App = Dg_app.Vm_app in
  let module Retry = Dg_resilience.Retry in
  let module Faults = Dg_resilience.Faults in
  let module Limiter = Dg_limiter.Limiter in
  let spec = landau_ampere_spec () in
  (* raw limiter cost relative to one SSP-RK3 step *)
  let app = App.create spec in
  let lay = App.layout app in
  let lim = Limiter.create lay.Layout.basis in
  let t_scan =
    time_per_call (fun () -> ignore (Limiter.scan lim (App.distribution app 0)))
  in
  let t_apply =
    time_per_call (fun () ->
        ignore (Limiter.apply lim (App.distribution app 0)))
  in
  let t_step = time_per_call (fun () -> ignore (App.step ~dt:1e-6 app)) in
  pr "limiter scan : %.1f us  apply: %.1f us  (%.1f%% of one SSP-RK3 step)\n"
    (t_scan *. 1e6) (t_apply *. 1e6)
    (100.0 *. t_apply /. t_step);
  (* full-run ladder behavior under a seeded negative overshoot: tier-0
     repair absorbs it with zero rollbacks; detect-only escalates to a
     tier-1 rollback *)
  let run mode inject =
    let app = App.create spec in
    let faults = Faults.none () in
    if inject then faults.Faults.neg_step <- Some 5;
    let policy = { Retry.default with Retry.check_every = 5 } in
    let t0 = Unix.gettimeofday () in
    let stats = App.run_resilient ~policy ~faults ~positivity:mode app ~tend:0.25 in
    (stats, Unix.gettimeofday () -. t0)
  in
  let _, wall_off = run `Off false in
  let _, wall_repair = run `Repair false in
  pr "clean run: off %.3f s, repair %.3f s  (overhead %.1f%%)\n" wall_off
    wall_repair
    (100.0 *. ((wall_repair /. wall_off) -. 1.0));
  let repair, _ = run `Repair true in
  let detect, _ = run `Detect true in
  pr "faulted repair: %s\n" (Format.asprintf "%a" Retry.pp_stats repair);
  pr "faulted detect: %s\n" (Format.asprintf "%a" Retry.pp_stats detect)

(* --- driver --------------------------------------------------------------- *)

let () =
  (match Array.to_list Sys.argv with
  | [] | [ _ ] | _ :: "all" :: _ ->
      fig1 ();
      fig2 ();
      conservation ();
      efficiency ();
      ablation ();
      sweep ();
      resilience ();
      guard ();
      fig3 ();
      table1 ();
      fig5 ~tend:8.0 ()
  | _ :: "fig1" :: _ -> fig1 ()
  | _ :: "fig2" :: _ -> fig2 ()
  | _ :: "table1" :: _ -> table1 ()
  | _ :: "efficiency" :: _ -> efficiency ()
  | _ :: "fig3" :: _ -> fig3 ()
  | _ :: "fig5" :: _ -> fig5 ()
  | _ :: "conservation" :: _ -> conservation ()
  | _ :: "ablation" :: _ -> ablation ()
  | _ :: "sweep" :: _ -> sweep ()
  | _ :: "resilience" :: _ -> resilience ()
  | _ :: "guard" :: _ -> guard ()
  | _ :: s :: _ ->
      prerr_endline ("unknown benchmark: " ^ s);
      exit 1);
  pr "\nbench done.\n"
