(* The Vlasov-Maxwell "App": composes per-species modal Vlasov solvers, the
   Maxwell (or electrostatic Ampere) field solver, the moment coupling, and
   the SSP-RK stepper into a runnable simulation — the OCaml counterpart of
   Gkeyll's LuaJIT App system.

   The evolved state is the list [f_1; ...; f_nspecies; em]; the right-hand
   side synchronizes ghosts, evaluates each species' phase-space update,
   accumulates the plasma current, and closes the loop through the field
   equations.  Normalized units: c = eps0 = mu0 = 1. *)

module Layout = Dg_kernels.Layout
module Modal = Dg_basis.Modal
module Grid = Dg_grid.Grid
module Field = Dg_grid.Field
module Solver = Dg_vlasov.Solver
module Moments = Dg_moments.Moments
module Stepper = Dg_time.Stepper
module Obs = Dg_obs.Obs
module Health = Dg_resilience.Health
module Faults = Dg_resilience.Faults
module Checkpoint = Dg_resilience.Checkpoint
module Retry = Dg_resilience.Retry
module Supervisor = Dg_resilience.Supervisor
module Limiter = Dg_limiter.Limiter

type field_model =
  | Full_maxwell (* Vlasov-Maxwell: dE/dt = curl B - J, dB/dt = -curl E *)
  | Ampere_only (* electrostatic Vlasov-Ampere: dE/dt = -J, B frozen *)
  | Poisson_es
    (* electrostatic Vlasov-Poisson: E solved from Gauss's law at every
       RHS evaluation (spectral solve on the periodic 1D charge density,
       projected onto the configuration basis); nothing field-like is
       time-stepped.  Requires cdim = 1, periodic configuration BCs, and
       a power-of-two x-cell count.  A uniform neutralizing background is
       implicit: the k = 0 charge mode is dropped by the solve. *)
  | Static (* fields never evolve (test flows, neutral gases) *)

type collision_model =
  | No_collisions
  | Lbo_collisions of float (* collision frequency nu *)
  | Bgk_collisions of float

type species_spec = {
  name : string;
  charge : float;
  mass : float;
  init_f : pos:float array -> vel:float array -> float;
      (* pointwise initial distribution, projected cell by cell *)
  collisions : collision_model;
  vbounds : (float array * float array) option;
      (* per-species velocity extents (lower, upper), overriding the
         spec's global velocity box: a real-mass-ratio ion species lives
         on a velocity grid ~sqrt(m_e/m_i) narrower than the electrons'
         with the same cell count (config grid stays shared) *)
}

let species ?(collisions = No_collisions) ?vbounds ~name ~charge ~mass ~init_f
    () =
  { name; charge; mass; init_f; collisions; vbounds }

type spec = {
  cdim : int;
  vdim : int;
  family : Modal.family;
  poly_order : int;
  cells : int array; (* cdim + vdim entries *)
  lower : float array;
  upper : float array;
  cfg_bcs : (Field.bc * Field.bc) array; (* per config dimension *)
  species : species_spec list;
  field_model : field_model;
  init_em : (float array -> float array) option; (* x -> 8 components *)
  vlasov_flux : Solver.flux_kind;
  use_generated_kernels : bool; (* dispatch to unrolled kernels when available *)
  maxwell_flux : Dg_lindg.Lindg.flux_kind;
  cfl : float;
  scheme : Stepper.scheme;
}

let default_spec ~cdim ~vdim ~cells ~lower ~upper ~species =
  {
    cdim;
    vdim;
    family = Modal.Serendipity;
    poly_order = 2;
    cells;
    lower;
    upper;
    cfg_bcs = Array.make cdim (Field.Periodic, Field.Periodic);
    species;
    field_model = Full_maxwell;
    init_em = None;
    vlasov_flux = Solver.Upwind;
    use_generated_kernels = true;
    maxwell_flux = Dg_lindg.Lindg.Central;
    cfl = 0.9;
    scheme = Stepper.Ssp_rk3;
  }

type collision_op =
  | No_op
  | Lbo_op of Dg_collisions.Lbo.t
  | Bgk_op of Dg_collisions.Bgk.t

type species = {
  s_spec : species_spec;
  s_lay : Layout.t;
      (* this species' phase-space layout: the spec layout unless the
         species overrides its velocity extents *)
  solver : Solver.t;
  moments : Moments.t;
  collide : collision_op;
  (* precomputed span names: no string building in the RHS even when
     tracing is on *)
  span_vlasov : string;
  span_coll : string;
}

type t = {
  spec : spec;
  lay : Layout.t;
  species : species array;
  maxwell : Dg_maxwell.Maxwell.t option;
  stepper : Stepper.t;
  state : Field.t list; (* species distributions then EM field *)
  phase_bcs : (Field.bc * Field.bc) array;
  em_bcs : (Field.bc * Field.bc) array;
  current : Field.t; (* work: Jx,Jy,Jz coefficient blocks *)
  charge : Field.t; (* work: sum_s q_s M0_s (the Poisson_es source) *)
  cproj : Modal.projector; (* configuration-basis table (Poisson_es E) *)
  mutable time : float;
  mutable nsteps : int;
  mutable trace : Obs.Sink.t option; (* per-step JSONL profile, if attached *)
}

(* Project a pointwise phase-space function onto every cell of a field.
   The projector lives for this call only: at 2X3V p=2 it is 2.8 MB. *)
let project_phase (lay : Layout.t) ~(f : pos:float array -> vel:float array -> float)
    (fld : Field.t) =
  let proj = Modal.projector lay.Layout.basis in
  let grid = lay.Layout.grid in
  let cdim = lay.Layout.cdim and vdim = lay.Layout.vdim in
  let phys = Array.make (cdim + vdim) 0.0 in
  Grid.iter_cells grid (fun _ c ->
      let coeffs =
        Modal.project_with proj (fun xi ->
            Grid.to_physical grid c xi phys;
            f ~pos:(Array.sub phys 0 cdim) ~vel:(Array.sub phys cdim vdim))
      in
      Field.write_block fld c coeffs)

(* Project a pointwise configuration-space vector function onto a field with
   [ncomp_vec] components of [nb] coefficients each: [f] runs once per
   Gauss point and every component is projected from that one value. *)
let project_config (lay : Layout.t) ~(f : float array -> float array) ~ncomp_vec
    (fld : Field.t) =
  let proj = Modal.projector lay.Layout.cbasis in
  let grid = lay.Layout.cgrid in
  let phys = Array.make lay.Layout.cdim 0.0 in
  Grid.iter_cells grid (fun _ c ->
      Field.write_block fld c
        (Modal.project_vec_with proj ~ncomp:ncomp_vec (fun xi ->
             Grid.to_physical grid c xi phys;
             f phys)))

(* Solve Gauss's law from the instantaneous charge density and write the
   resulting E_x expansion into component 0 of [em] (interior cells; the
   caller re-synchronizes ghosts).  1D periodic spectral solve on the cell
   averages of rho = sum_s q_s M0_s, then an exact L2 projection of the
   smooth spectral E(x) onto the configuration basis cell by cell — so the
   electrostatic field keeps the full polynomial order of the scheme
   instead of flattening to cell averages.  [proj] is the configuration
   basis's projector, built once per app.  The three stages are child
   spans (charge, spectrum, project) of whatever span the caller opens. *)
let poisson_solve_into ~(species : species array) ~(lay : Layout.t)
    ~(proj : Modal.projector) ~(work : Field.t) (fs : Field.t array)
    (em : Field.t) =
  Obs.span "charge" (fun () ->
      Field.fill work 0.0;
      Array.iteri
        (fun i sp ->
          Moments.accumulate_charge sp.moments ~charge:sp.s_spec.charge
            ~f:fs.(i) ~out:work)
        species);
  let cgrid = lay.Layout.cgrid in
  let eval =
    Obs.span "spectrum" (fun () ->
        let rho =
          Dg_poisson.Poisson.cell_averages ~basis_dim:lay.Layout.cdim work
            ~comp:0
        in
        Dg_poisson.Poisson.periodic_eval_1d ~dx:(Grid.dx cgrid).(0) rho)
  in
  let nc = Layout.num_cbasis lay in
  let x0 = (Grid.lower cgrid).(0) in
  let phys = Array.make 1 0.0 in
  Obs.span "project" (fun () ->
      Grid.iter_cells cgrid (fun _ c ->
          let coeffs =
            Modal.project_with proj (fun xi ->
                Grid.to_physical cgrid c xi phys;
                snd (eval (phys.(0) -. x0)))
          in
          let base = Field.offset em c in
          let data = Field.data em in
          for k = 0 to nc - 1 do
            data.(base + k) <- coeffs.(k)
          done))

(* Build the app for [spec].  With [~initial:false] the state is left at
   zero, for a caller that overwrites it from a checkpoint at once: the
   initial projections and the initial Poisson solve are skipped. *)
let build ~initial (spec : spec) =
  let grid = Grid.make ~cells:spec.cells ~lower:spec.lower ~upper:spec.upper in
  let lay =
    Layout.make ~cdim:spec.cdim ~vdim:spec.vdim ~family:spec.family
      ~poly_order:spec.poly_order ~grid
  in
  (match spec.field_model with
  | Poisson_es ->
      if spec.cdim <> 1 then
        invalid_arg "Vm_app.create: Poisson_es needs cdim = 1";
      if spec.cfg_bcs.(0) <> (Field.Periodic, Field.Periodic) then
        invalid_arg "Vm_app.create: Poisson_es needs periodic x BCs";
      if not (Dg_fft.Fft.is_pow2 spec.cells.(0)) then
        invalid_arg
          (Printf.sprintf
             "Vm_app.create: Poisson_es needs a power-of-two x-cell count \
              (got %d)"
             spec.cells.(0))
  | Full_maxwell | Ampere_only | Static -> ());
  (* per-species layout: shared, unless the species narrows (or widens)
     its velocity box — same cell counts, so every species runs the same
     generated kernels and DOF accounting *)
  let species_layout (ss : species_spec) =
    match ss.vbounds with
    | None -> lay
    | Some (vlo, vhi) ->
        if
          Array.length vlo <> spec.vdim || Array.length vhi <> spec.vdim
        then
          invalid_arg
            (Printf.sprintf
               "Vm_app.create: species %S vbounds must have vdim=%d entries"
               ss.name spec.vdim);
        Array.iteri
          (fun d lo ->
            if not (vhi.(d) > lo) then
              invalid_arg
                (Printf.sprintf
                   "Vm_app.create: species %S vbounds dim %d: upper must \
                    exceed lower"
                   ss.name d))
          vlo;
        let lower = Array.copy spec.lower and upper = Array.copy spec.upper in
        Array.blit vlo 0 lower spec.cdim spec.vdim;
        Array.blit vhi 0 upper spec.cdim spec.vdim;
        let g = Grid.make ~cells:spec.cells ~lower ~upper in
        Layout.make ~cdim:spec.cdim ~vdim:spec.vdim ~family:spec.family
          ~poly_order:spec.poly_order ~grid:g
  in
  let np = Layout.num_basis lay in
  let nc = Layout.num_cbasis lay in
  let species =
    Array.of_list
      (List.map
         (fun (ss : species_spec) ->
           let s_lay = species_layout ss in
           {
             s_spec = ss;
             s_lay;
             solver =
               Solver.create ~flux:spec.vlasov_flux
                 ~use_kernels:spec.use_generated_kernels
                 ~qm:(ss.charge /. ss.mass) s_lay;
             moments = Moments.make s_lay;
             collide =
               (match ss.collisions with
               | No_collisions -> No_op
               | Lbo_collisions nu ->
                   Lbo_op (Dg_collisions.Lbo.create ~nu s_lay)
               | Bgk_collisions nu ->
                   Bgk_op (Dg_collisions.Bgk.create ~nu s_lay));
             span_vlasov = "vlasov:" ^ ss.name;
             span_coll = "collisions:" ^ ss.name;
           })
         spec.species)
  in
  let maxwell =
    match spec.field_model with
    | Full_maxwell ->
        Some
          (Dg_maxwell.Maxwell.create ~flux:spec.maxwell_flux
             ~chi:0.0 ~gamma:0.0 ~basis:lay.Layout.cbasis
             ~grid:lay.Layout.cgrid ())
    | Ampere_only | Poisson_es | Static -> None
  in
  let fs =
    Array.to_list
      (Array.map
         (fun sp ->
           let fld =
             Field.create_phase ~cdim:spec.cdim sp.s_lay.Layout.grid ~ncomp:np
           in
           if initial then project_phase sp.s_lay ~f:sp.s_spec.init_f fld;
           fld)
         species)
  in
  let em = Field.create lay.Layout.cgrid ~ncomp:(8 * nc) in
  (match spec.init_em with
  | Some f when initial -> project_config lay ~f ~ncomp_vec:8 em
  | Some _ | None -> ());
  let charge = Field.create lay.Layout.cgrid ~ncomp:nc in
  (* every RHS refreshes a Poisson_es field, resumed apps included *)
  let cproj = Modal.projector lay.Layout.cbasis in
  (* Poisson_es: the initial E is part of the initial condition — solve it
     from the projected f so the first dt suggestion and diagnostics see
     the self-consistent field, not init_em's guess (usually None) *)
  (match spec.field_model with
  | Poisson_es when initial ->
      poisson_solve_into ~species ~lay ~proj:cproj ~work:charge
        (Array.of_list fs) em
  | Poisson_es | Full_maxwell | Ampere_only | Static -> ());
  let state = fs @ [ em ] in
  let phase_bcs =
    Array.init lay.Layout.pdim (fun d ->
        if d < spec.cdim then spec.cfg_bcs.(d) else (Field.Zero, Field.Zero))
  in
  let em_bcs = spec.cfg_bcs in
  {
    spec;
    lay;
    species;
    maxwell;
    stepper = Stepper.create ~scheme:spec.scheme ~like:state;
    state;
    phase_bcs;
    em_bcs;
    current = Field.create lay.Layout.cgrid ~ncomp:(3 * nc);
    charge;
    cproj;
    time = 0.0;
    nsteps = 0;
    trace = None;
  }

let create spec = build ~initial:true spec

let layout t = t.lay
let time t = t.time
let nsteps t = t.nsteps

let split_state (t : t) (state : Field.t list) =
  let rec go i = function
    | [ em ] when i = Array.length t.species -> ([], em)
    | f :: rest when i < Array.length t.species ->
        let fs, em = go (i + 1) rest in
        (f :: fs, em)
    | _ -> invalid_arg "Vm_app.split_state"
  in
  let fs, em = go 0 state in
  (Array.of_list fs, em)

let distribution t i = fst (split_state t t.state) |> fun fs -> fs.(i)
let em_field t = snd (split_state t t.state)

(* Accumulate the total plasma current from all species into t.current. *)
let compute_current t (fs : Field.t array) =
  Field.fill t.current 0.0;
  Array.iteri
    (fun i sp ->
      Moments.accumulate_current sp.moments ~charge:sp.s_spec.charge ~f:fs.(i)
        ~out:t.current)
    t.species

(* The coupled RHS: d(state)/dt into [outs]. *)
let rhs t ~time:_ (state : Field.t list) (outs : Field.t list) =
  let fs, em = split_state t state in
  let fouts, em_out = split_state t outs in
  (* ghost synchronization *)
  Obs.span "sync_ghosts" (fun () ->
      Array.iter (fun f -> Field.sync_ghosts f t.phase_bcs) fs);
  (* Poisson_es closes the field loop instantaneously: E is a functional
     of the current f, recomputed before every species update *)
  (match t.spec.field_model with
  | Poisson_es ->
      Obs.span "poisson" (fun () ->
          poisson_solve_into ~species:t.species ~lay:t.lay ~proj:t.cproj
            ~work:t.charge fs em)
  | Full_maxwell | Ampere_only | Static -> ());
  Obs.span "sync_ghosts" (fun () -> Field.sync_ghosts em t.em_bcs);
  (* species updates *)
  Array.iteri
    (fun i sp ->
      Obs.span sp.span_vlasov (fun () ->
          Solver.rhs sp.solver ~f:fs.(i) ~em:(Some em) ~out:fouts.(i));
      match sp.collide with
      | No_op -> ()
      | Lbo_op lbo ->
          Obs.span sp.span_coll (fun () ->
              Dg_collisions.Lbo.update_prim lbo ~f:fs.(i);
              Dg_collisions.Lbo.rhs lbo ~f:fs.(i) ~out:fouts.(i))
      | Bgk_op bgk ->
          Obs.span sp.span_coll (fun () ->
              Dg_collisions.Bgk.update_prim bgk ~f:fs.(i);
              Dg_collisions.Bgk.rhs bgk ~f:fs.(i) ~out:fouts.(i)))
    t.species;
  (* field update *)
  Obs.span "field" (fun () ->
      Field.fill em_out 0.0;
      match t.spec.field_model with
      | Static | Poisson_es -> () (* nothing field-like is time-stepped *)
      | Ampere_only ->
          compute_current t fs;
          (* dE/dt = -J on components 0..2 *)
          let nc = Layout.num_cbasis t.lay in
          Grid.iter_cells t.lay.Layout.cgrid (fun _ c ->
              let jo = Field.offset t.current c and oo = Field.offset em_out c in
              let jd = Field.data t.current and od = Field.data em_out in
              for k = 0 to (3 * nc) - 1 do
                od.(oo + k) <- od.(oo + k) -. jd.(jo + k)
              done)
      | Full_maxwell ->
          let mx = Option.get t.maxwell in
          compute_current t fs;
          Dg_maxwell.Maxwell.rhs mx ~em ~out:em_out;
          Dg_maxwell.Maxwell.add_current_source mx ~current:t.current
            ~out:em_out)

(* CFL-limited time step from current state speeds.  Each species is
   limited on its own grid (velocity extents may differ per species); the
   global step is the minimum. *)
let suggest_dt_impl t =
  let fs, em = split_state t t.state in
  let dt = ref infinity in
  Array.iter
    (fun sp ->
      let speeds = Solver.max_speeds sp.solver ~em:(Some em) in
      (* light-speed constraint in configuration directions for Maxwell *)
      if t.spec.field_model = Full_maxwell then
        for d = 0 to t.spec.cdim - 1 do
          if speeds.(d) < 1.0 then speeds.(d) <- 1.0
        done;
      dt :=
        Float.min !dt
          (Stepper.cfl_dt ~cfl:t.spec.cfl ~poly_order:t.spec.poly_order
             ~dx:(Grid.dx sp.s_lay.Layout.grid) ~speeds))
    t.species;
  (* collisional (diffusion / relaxation) stability limits *)
  Array.iteri
    (fun i sp ->
      match sp.collide with
      | Lbo_op lbo ->
          Dg_collisions.Lbo.update_prim lbo ~f:fs.(i);
          dt := Float.min !dt (Dg_collisions.Lbo.suggest_dt lbo)
      | Bgk_op bgk -> dt := Float.min !dt (0.5 /. bgk.Dg_collisions.Bgk.nu)
      | No_op -> ())
    t.species;
  !dt

let suggest_dt t = Obs.span "cfl" (fun () -> suggest_dt_impl t)

(* --- tracing ------------------------------------------------------------- *)

let field_model_name = function
  | Full_maxwell -> "full-maxwell"
  | Ampere_only -> "ampere-only"
  | Poisson_es -> "poisson-es"
  | Static -> "static"

(* Machine-readable spec summary for manifests and job-status streams —
   the numeric identity of a run, not the closures. *)
let spec_manifest (sp : spec) =
  let ints a =
    Obs.Json.List (List.map (fun v -> Obs.Json.Int v) (Array.to_list a))
  in
  let floats a =
    Obs.Json.List (List.map (fun v -> Obs.Json.Float v) (Array.to_list a))
  in
  [
    ("layout", Obs.Json.Str (Printf.sprintf "%dx%dv" sp.cdim sp.vdim));
    ("family", Obs.Json.Str (Modal.family_name sp.family));
    ("poly_order", Obs.Json.Int sp.poly_order);
    ("cells", ints sp.cells);
    ("lower", floats sp.lower);
    ("upper", floats sp.upper);
    ( "species",
      Obs.Json.List
        (List.map
           (fun (ss : species_spec) -> Obs.Json.Str ss.name)
           sp.species) );
    ("field_model", Obs.Json.Str (field_model_name sp.field_model));
    ("scheme", Obs.Json.Str (Stepper.scheme_name sp.scheme));
    ("cfl", Obs.Json.Float sp.cfl);
  ]

let attach_trace t path =
  (* Enable first so the step instrumentation records; read the dispatch
     counters (filed at solver-creation time if tracing was already on)
     into the manifest before the per-step reset discards them. *)
  Obs.enable ();
  let manifest =
    spec_manifest t.spec
    @ [
        ( "dispatch_specialized_dirs",
          Obs.Json.Int
            (int_of_float (Obs.counter_value "dispatch.specialized_dirs")) );
        ( "dispatch_interpreted_dirs",
          Obs.Json.Int
            (int_of_float (Obs.counter_value "dispatch.interpreted_dirs")) );
      ]
  in
  let sink = Obs.Sink.create ~manifest path in
  Obs.reset ();
  t.trace <- Some sink

let close_trace t =
  match t.trace with
  | None -> ()
  | Some sink ->
      Obs.Sink.close sink;
      t.trace <- None

(* One "step" record per step; the aggregator is cleared afterwards so each
   record covers exactly one step. *)
let emit_step_record t sink ~dt ~wall ~gc0 =
  let gc = Obs.gc_delta ~before:gc0 ~after:(Obs.gc_sample ()) in
  Obs.Sink.event sink ~kind:"step"
    [
      ("step", Obs.Json.Int t.nsteps);
      ("time", Obs.Json.Float t.time);
      ("dt", Obs.Json.Float dt);
      ("wall_s", Obs.Json.Float wall);
      ("spans", Obs.spans_json ());
      ("counters", Obs.counters_json ());
      ("gauges", Obs.gauges_json ());
      ("gc", Obs.gc_json gc);
    ];
  Obs.reset ()

(* Publish slice liveness into [hb]: the stepper bumps it after every
   completed RHS stage (the finest progress the integrator can attest to),
   so a supervisor in another domain can tell "slow but advancing" from
   "hung".  Clocked by [Obs.now] — watchers must compare against the same
   clock.  Pass [None] to detach. *)
let set_heartbeat t hb =
  Stepper.set_stage_hook t.stepper
    (Option.map (fun hb () -> Atomic.set hb (Obs.now ())) hb)

(* Advance one step of size [dt] (or the CFL-suggested step). *)
let step ?dt t =
  let tracing = t.trace <> None in
  let t0 = if tracing then Obs.now () else 0.0 in
  let gc0 = if tracing then Some (Obs.gc_sample ()) else None in
  let dt = match dt with Some dt -> dt | None -> suggest_dt t in
  Obs.gauge "dt" dt;
  Obs.span "step" (fun () ->
      Stepper.step t.stepper ~rhs:(rhs t) ~time:t.time ~dt t.state);
  (* The electrostatic field is diagnostic state derived from f, not
     time-stepped: refresh it from the post-step distributions so
     field-energy / history readouts between steps are consistent. *)
  (match t.spec.field_model with
  | Poisson_es ->
      let fs, em = split_state t t.state in
      Obs.span "poisson" (fun () ->
          poisson_solve_into ~species:t.species ~lay:t.lay ~proj:t.cproj
            ~work:t.charge fs em)
  | Full_maxwell | Ampere_only | Static -> ());
  t.time <- t.time +. dt;
  t.nsteps <- t.nsteps + 1;
  (match (t.trace, gc0) with
  | Some sink, Some gc0 -> emit_step_record t sink ~dt ~wall:(Obs.now () -. t0) ~gc0
  | _ -> ());
  dt

(* The next step size for a run loop: the CFL dt, capped by [limit] and
   clamped to land on [tend], returned with the uncapped CFL dt.  Guards
   against the ways a run can silently hang or loop forever: a step-count
   safety valve, a non-positive or NaN dt (broken CFL input), and a dt too
   small to advance floating-point time.  [who] names the caller in the
   failure text. *)
let next_dt ~who ~max_steps ?(limit = infinity) t ~tend =
  if t.nsteps >= max_steps then
    failwith
      (Printf.sprintf "%s: max_steps (%d) reached at t=%g before tend=%g" who
         max_steps t.time tend);
  let dt_cfl = suggest_dt t in
  let dt = Float.min (Float.min dt_cfl limit) (tend -. t.time) in
  if not (dt > 0.0) then
    failwith
      (Printf.sprintf "%s: non-positive or NaN dt (%g) at t=%g" who dt t.time);
  if t.time +. dt <= t.time then
    failwith
      (Printf.sprintf "%s: dt=%g cannot advance time t=%g (step too small)" who
         dt t.time);
  (dt_cfl, dt)

(* Run until [tend], invoking [on_step] after every step. *)
let run ?(max_steps = max_int) ?(on_step = fun (_ : t) -> ()) t ~tend =
  while t.time < tend -. 1e-12 do
    let _, dt = next_dt ~who:"Vm_app.run" ~max_steps t ~tend in
    ignore (step ~dt t);
    on_step t
  done

(* --- diagnostics --------------------------------------------------------- *)

let total_mass t i =
  let fs, _ = split_state t t.state in
  let sp = t.species.(i) in
  sp.s_spec.mass *. Moments.total_mass sp.moments ~f:fs.(i)

let kinetic_energy t i =
  let fs, _ = split_state t t.state in
  let sp = t.species.(i) in
  Moments.total_kinetic_energy sp.moments ~mass:sp.s_spec.mass ~f:fs.(i)

(* (electric, magnetic) field energies separately — instability diagnostics
   fit growth on one of the two (Weibel: magnetic; Landau/two-stream:
   electric). *)
let field_energy_split t =
  match t.maxwell with
  | Some mx ->
      let em = em_field t in
      ( Dg_maxwell.Maxwell.electric_energy mx ~em,
        Dg_maxwell.Maxwell.magnetic_energy mx ~em )
  | None ->
      let nc = Layout.num_cbasis t.lay in
      let em = em_field t in
      let jac =
        Grid.cell_volume t.lay.Layout.cgrid
        /. (2.0 ** float_of_int t.spec.cdim)
      in
      let acc_e = ref 0.0 and acc_b = ref 0.0 in
      Grid.iter_cells t.lay.Layout.cgrid (fun _ c ->
          let base = Field.offset em c in
          for k = 0 to (3 * nc) - 1 do
            let e = (Field.data em).(base + k) in
            let b = (Field.data em).(base + (3 * nc) + k) in
            acc_e := !acc_e +. (e *. e);
            acc_b := !acc_b +. (b *. b)
          done);
      (0.5 *. !acc_e *. jac, 0.5 *. !acc_b *. jac)

let field_energy t =
  match t.maxwell with
  | Some mx -> Dg_maxwell.Maxwell.field_energy mx ~em:(em_field t)
  | None -> (* electrostatic: (1/2) int |E|^2 *) fst (field_energy_split t)

let total_energy t =
  let ke = ref (field_energy t) in
  Array.iteri (fun i _ -> ke := !ke +. kinetic_energy t i) t.species;
  !ke

(* Degrees of freedom one step evolves: every species' distribution, plus
   the 8-component EM field unless the field model leaves it static. *)
let dof_per_step t =
  let phase = Grid.num_cells t.lay.Layout.grid * Layout.num_basis t.lay in
  let em =
    match t.spec.field_model with
    | Full_maxwell | Ampere_only | Poisson_es ->
        8 * Grid.num_cells t.lay.Layout.cgrid * Layout.num_cbasis t.lay
    | Static -> 0
  in
  float_of_int ((Array.length t.species * phase) + em)

(* --- checkpoint / restart ------------------------------------------------- *)

let checkpoint t ~dir =
  Checkpoint.write ~dir ~step:t.nsteps ~time:t.time t.state

(* Load checkpointed fields into a freshly created (same-spec) app.
   Everything else the solver holds — stepper stages, moments,
   primitive-variable caches, the current accumulator — is workspace
   recomputed from the state each step, and ghosts are re-synchronized at
   the top of every RHS, so copying every cell the app's fields store
   (interior and ghosts) makes the resumed trajectory bit-exact.  A
   checkpoint record is padded uniformly ({!Checkpoint.read}); the cells
   it holds beyond the app's layout (a phase field's velocity ghosts) are
   dropped.  Each field's grid (cells and bounds) and component count must
   match: a checkpoint of another scenario can have the same array sizes
   on a different domain. *)
let restore t (info : Checkpoint.info) fields =
  if List.length fields <> List.length t.state then
    failwith
      (Printf.sprintf
         "Vm_app.restore: checkpoint has %d fields, app expects %d"
         (List.length fields) (List.length t.state));
  List.iter2
    (fun src dst ->
      let gs = Field.grid src and gd = Field.grid dst in
      let ndim = Grid.ndim gd in
      if
        Grid.cells gs <> Grid.cells gd
        || Grid.lower gs <> Grid.lower gd
        || Grid.upper gs <> Grid.upper gd
        || Field.ncomp src <> Field.ncomp dst
        || List.exists
             (fun d -> Field.ghost src d < Field.ghost dst d)
             (List.init ndim Fun.id)
      then
        failwith
          "Vm_app.restore: checkpoint field shape does not match this app \
           (different grid, basis, or species set?)";
      Field.copy_stored ~src ~dst)
    fields t.state;
  t.nsteps <- info.Checkpoint.step;
  t.time <- info.Checkpoint.time

let restore_latest t ~dir =
  Option.map
    (fun (info, fields) ->
      restore t info fields;
      info)
    (Checkpoint.load_latest ~dir)

(* The job-engine entry point: build the app for [spec] and, when its
   checkpoint directory already holds a valid checkpoint (an earlier slice
   of the same job was preempted, crashed after a checkpoint, or the whole
   server restarted), resume from it bit-exactly, without projecting the
   initial condition the checkpoint overwrites.  A fresh job starts from
   the projected initial condition. *)
let create_resumable spec ~checkpoint_dir =
  match Checkpoint.load_latest ~dir:checkpoint_dir with
  | None -> (create spec, None)
  | Some (info, fields) ->
      let t = build ~initial:false spec in
      restore t info fields;
      (t, Some info)


(* --- health-checked stepping: the graceful-degradation ladder ------------- *)

(* The last-known-good window: a copy of the state and where it stood. *)
type last_good = {
  good_state : Field.t list;
  good_time : float;
  good_step : int;
  good_energy : float;
}

let first_good t =
  {
    good_state = List.map Field.clone t.state;
    good_time = t.time;
    good_step = t.nsteps;
    good_energy = total_energy t;
  }

let save_good t g ~energy =
  List.iter2 (fun src dst -> Field.copy_into ~src ~dst) t.state g.good_state;
  { g with good_time = t.time; good_step = t.nsteps; good_energy = energy }

let restore_good t g =
  List.iter2 (fun src dst -> Field.copy_into ~src ~dst) g.good_state t.state;
  t.time <- g.good_time;
  t.nsteps <- g.good_step

(* One limiter pass ([Limiter.apply] or [Limiter.scan]) over every
   species' distribution. *)
let limit_species t pass =
  Array.fold_left
    (fun acc f -> Limiter.merge acc (pass f))
    Limiter.clean
    (fst (split_state t t.state))

(* Tier 0: rescale every cell the limiter can repair; returns the number
   of cells it could not. *)
let repair_positivity stats t lim =
  let rep = limit_species t (Limiter.apply lim) in
  if rep.Limiter.cells_clamped > 0 then begin
    stats.Retry.tier0_repairs <- stats.Retry.tier0_repairs + 1;
    stats.Retry.cells_clamped <-
      stats.Retry.cells_clamped + rep.Limiter.cells_clamped;
    Obs.count "resilience.tier0_repairs" 1
  end;
  rep.Limiter.unrepairable

(* Checkpoint the current state into [dir], if there is one. *)
let write_checkpoint stats ~faults ?keep_last t dir =
  Option.iter
    (fun dir ->
      let t0 = Obs.now () in
      ignore
        (Checkpoint.write ~faults ?keep_last ~dir ~step:t.nsteps ~time:t.time
           t.state);
      stats.Retry.checkpoints <- stats.Retry.checkpoints + 1;
      stats.Retry.checkpoint_s <-
        stats.Retry.checkpoint_s +. (Obs.now () -. t0))
    dir

(* Like [run], but each step climbs a ladder of increasingly expensive
   recoveries only as far as it must:

     tier 0  positivity-limiter repair: mean-preserving rescale of cells
             whose expansion dips below zero at the control nodes — no
             rollback, no dt penalty ([positivity = `Repair])
     tier 1  roll back to the in-memory last-known-good window, retry with
             a shrunk dt ceiling (consecutive failures compound the shrink
             — exponential backoff; healthy windows regrow it)
     tier 2  restore the newest valid on-disk checkpoint (at most
             [policy.max_restores] times)
     tier 3  clean abort: restore last-good, write a final checkpoint so
             nothing is lost, raise

   Tier 0 and the health scan run here; every tier-1..3 decision, the dt
   ceiling and the periodic-checkpoint cadence come from the pure
   [Retry.decide], and this loop only performs them.  A [supervisor] is
   polled between steps: a stop request (SIGTERM/SIGINT, or its --max-wall
   budget) checkpoints the last completed step and returns with
   [stats.stopped] set — restarting from that checkpoint is bit-exact, as
   if the run had been configured to end there. *)
let run_resilient ?(policy = Retry.default) ?(faults = Faults.none ())
    ?(positivity = `Off) ?supervisor ?(checkpoint_every = 0) ?checkpoint_dir
    ?keep_last ?(max_steps = max_int) ?(on_step = fun (_ : t) -> ()) t ~tend =
  Retry.validate policy;
  if checkpoint_every > 0 && checkpoint_dir = None then
    invalid_arg "Vm_app.run_resilient: checkpoint_every needs checkpoint_dir";
  (match keep_last with
  | Some k when k < 1 ->
      invalid_arg "Vm_app.run_resilient: keep_last must be >= 1"
  | _ -> ());
  let stats = Retry.fresh_stats () in
  let limiter =
    match positivity with
    | `Off -> None
    | `Detect | `Repair -> Some (Limiter.create t.lay.Layout.basis)
  in
  (* refuse to start from a poisoned state: there is nothing to roll back to *)
  let r0 = Health.check t.state in
  if not (Health.is_clean r0) then
    failwith
      (Printf.sprintf
         "Vm_app.run_resilient: initial state is unhealthy (%d NaN, %d Inf)"
         r0.Health.nan r0.Health.inf);
  (* [unrepairable]: cells tier-0 repairs could not fix since the last
     window closed *)
  let rec loop ladder good ~unrepairable =
    if t.time < tend -. 1e-12 then
      (* supervision: stop requests land on step boundaries only *)
      match Option.bind supervisor Supervisor.should_stop with
      | Some reason ->
          stats.Retry.stopped <- Some (Supervisor.reason_to_string reason);
          Obs.count "resilience.supervised_stops" 1;
          (* a stop can land mid-window, after corruption struck but
             before the check that would roll it back: checkpoint
             last-known-good then, or every resume fails the initial
             health gate *)
          if not (Health.is_clean (Health.check t.state)) then begin
            Obs.count "resilience.poisoned_stop_rollbacks" 1;
            restore_good t good
          end;
          write_checkpoint stats ~faults ?keep_last t checkpoint_dir
      | None -> (
          let dt_cfl, dt =
            next_dt ~who:"Vm_app.run_resilient" ~max_steps
              ~limit:ladder.Retry.dt_ceiling t ~tend
          in
          ignore (step ~dt t);
          stats.Retry.steps <- stats.Retry.steps + 1;
          Faults.maybe_inject_nan faults ~step:t.nsteps t.state;
          Faults.maybe_inject_negative faults ~step:t.nsteps t.state;
          (* process-level bombs: a crash raises out of the slice (the
             state and checkpoints on disk are exactly what a SIGKILL would
             leave); a hang stalls here with the heartbeat frozen, which is
             the watchdog's cue *)
          Faults.maybe_crash faults ~step:t.nsteps;
          Faults.maybe_hang faults ~step:t.nsteps;
          (* tier 0: repair pointwise negativity right where it appears *)
          let unrepairable =
            match (limiter, positivity) with
            | Some lim, `Repair -> unrepairable + repair_positivity stats t lim
            | _ -> unrepairable
          in
          let ladder, due =
            Retry.tick policy ladder ~at_end:(t.time >= tend -. 1e-12)
          in
          if not due then begin
            on_step t;
            loop ladder good ~unrepairable
          end
          else
            let report =
              Obs.span "health_check" (fun () -> Health.check t.state)
            in
            (* `Detect mode scans (without repairing) at window checks, so
               a run with the limiter disabled still notices lost
               positivity and escalates; `Repair mode already fixed what it
               could and only its unrepairable remainder counts *)
            let nonrealizable =
              match (limiter, positivity) with
              | Some lim, `Detect ->
                  let rep = limit_species t (Limiter.scan lim) in
                  rep.Limiter.cells_clamped + rep.Limiter.unrepairable
              | _ -> unrepairable
            in
            let verdict = Health.verdict report ~nonrealizable in
            let energy = total_energy t in
            let healthy =
              Health.is_healthy verdict
              && Health.energy_jump ~prev:good.good_energy ~cur:energy
                 <= policy.Retry.energy_jump_tol
            in
            let next, decision =
              Retry.decide policy ladder
                ~can_restore:(checkpoint_dir <> None)
                { Retry.healthy; step = t.nsteps; dt; dt_cfl }
            in
            (* a restore that finds no valid checkpoint is a tier-3 abort *)
            let decision =
              if decision <> Retry.Restore then decision
              else
                match
                  Option.bind checkpoint_dir (fun dir -> restore_latest t ~dir)
                with
                | Some _ -> decision
                | None -> Retry.Abort
            in
            Retry.tally stats ladder decision;
            match decision with
            | Retry.Accept { checkpoint } ->
                let good = save_good t good ~energy in
                if checkpoint then
                  write_checkpoint stats ~faults ?keep_last t checkpoint_dir;
                on_step t;
                loop next good ~unrepairable:0
            | Retry.Rollback ->
                restore_good t good;
                loop next good ~unrepairable:0
            | Retry.Restore ->
                loop next (save_good t good ~energy:(total_energy t))
                  ~unrepairable:0
            | Retry.Abort ->
                restore_good t good;
                (* leave the best state we have on disk before dying *)
                write_checkpoint stats ~faults ?keep_last t checkpoint_dir;
                failwith
                  (Format.asprintf
                     "Vm_app.run_resilient: aborting at t=%g after %d \
                      retries: %a"
                     good.good_time policy.Retry.max_retries Health.pp_verdict
                     verdict))
  in
  loop (Retry.start ~checkpoint_every ~step:t.nsteps) (first_good t)
    ~unrepairable:0;
  stats
