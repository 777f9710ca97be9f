(** The Vlasov-Maxwell "App": species + field + moments + stepper composed
    into a runnable simulation — the OCaml counterpart of Gkeyll's LuaJIT
    App system.  Normalized units c = eps0 = mu0 = 1. *)

module Layout = Dg_kernels.Layout
module Modal = Dg_basis.Modal
module Field = Dg_grid.Field
module Solver = Dg_vlasov.Solver
module Stepper = Dg_time.Stepper

(** Field closure: full Maxwell, electrostatic Ampere (dE/dt = -J, frozen
    B), electrostatic Vlasov-Poisson (E from Gauss's law every RHS —
    requires cdim = 1, periodic x, power-of-two x cells; the k = 0 mode is
    dropped, i.e. a neutralizing background is implicit), or static
    fields. *)
type field_model = Full_maxwell | Ampere_only | Poisson_es | Static

type collision_model =
  | No_collisions
  | Lbo_collisions of float  (** Dougherty Fokker-Planck, frequency nu *)
  | Bgk_collisions of float

type species_spec = {
  name : string;
  charge : float;
  mass : float;
  init_f : pos:float array -> vel:float array -> float;
  collisions : collision_model;
  vbounds : (float array * float array) option;
      (** per-species velocity-space extents (lower, upper), [vdim] each;
          [None] uses the spec's shared extents.  Cell {i counts} are always
          shared, so a heavy species can run on a narrow velocity box (real
          mass ratios) without changing kernels or DOF accounting. *)
}

val species :
  ?collisions:collision_model ->
  ?vbounds:float array * float array ->
  name:string ->
  charge:float ->
  mass:float ->
  init_f:(pos:float array -> vel:float array -> float) ->
  unit ->
  species_spec

(** Full simulation specification; build with {!default_spec} and override
    fields as needed. *)
type spec = {
  cdim : int;
  vdim : int;
  family : Modal.family;
  poly_order : int;
  cells : int array;
  lower : float array;
  upper : float array;
  cfg_bcs : (Field.bc * Field.bc) array;
  species : species_spec list;
  field_model : field_model;
  init_em : (float array -> float array) option;
      (** x -> the 8 EM components (Ex..Bz, phi, psi) *)
  vlasov_flux : Solver.flux_kind;
  use_generated_kernels : bool;
      (** dispatch species updates to the generated unrolled kernels when
          the registry covers the basis (default [true]) *)
  maxwell_flux : Dg_lindg.Lindg.flux_kind;
  cfl : float;
  scheme : Stepper.scheme;
}

val default_spec :
  cdim:int ->
  vdim:int ->
  cells:int array ->
  lower:float array ->
  upper:float array ->
  species:species_spec list ->
  spec
(** Serendipity p=2, periodic, upwind Vlasov / central Maxwell fluxes,
    SSP-RK3, cfl 0.9, full Maxwell. *)

type t

val project_phase :
  Layout.t -> f:(pos:float array -> vel:float array -> float) -> Field.t -> unit
(** Project a pointwise phase-space function cell by cell (exposed for
    tests and custom initialization).  One {!Modal.projector} table is
    built per call and dropped at its end; every cell is one pass over it.
    [f] gets fresh [pos] and [vel] arrays at every Gauss point. *)

val project_config :
  Layout.t -> f:(float array -> float array) -> ncomp_vec:int -> Field.t -> unit
(** Project a pointwise configuration-space vector function (the
    [ncomp_vec] components of [f x]) cell by cell, through one
    configuration-basis projector built per call.  [f] is called once per
    Gauss point per cell, whatever [ncomp_vec].  [f] must not keep its
    argument: the array is reused at every point. *)

val create : spec -> t
val layout : t -> Layout.t
val time : t -> float
val nsteps : t -> int

val distribution : t -> int -> Field.t
(** The i-th species' distribution function (live state). *)

val em_field : t -> Field.t

val rhs : t -> time:float -> Field.t list -> Field.t list -> unit
(** The coupled right-hand side (exposed for custom steppers). *)

val suggest_dt : t -> float
(** CFL-limited step from the current state (including collisional
    stability limits). *)

val step : ?dt:float -> t -> float
(** Advance one step; returns the dt taken. *)

val set_heartbeat : t -> float Atomic.t option -> unit
(** Publish liveness into the atomic: the stepper stamps [Obs.now ()] into
    it after every completed RHS stage, so a watchdog in another domain can
    distinguish a slow-but-advancing slice from a hung one (compare against
    the same [Obs.now] clock).  [None] detaches the hook. *)

val run : ?max_steps:int -> ?on_step:(t -> unit) -> t -> tend:float -> unit
(** Run until [tend].
    @raise Failure if the CFL dt is non-positive or NaN, if dt is too small
    to advance floating-point time, or if [max_steps] is reached first —
    the three ways a run can otherwise hang or loop forever. *)

(** {1 Resilience: checkpoint/restart and rollback/retry}

    See {!Dg_resilience} for the underlying machinery. *)

val checkpoint : t -> dir:string -> Dg_resilience.Checkpoint.info
(** Write a crash-consistent checkpoint of the full evolved state at the
    current step/time (temp file + checksum + atomic rename). *)

val restore_latest : t -> dir:string -> Dg_resilience.Checkpoint.info option
(** Restore from the newest checkpoint in [dir] whose checksum verifies:
    copies every coefficient array (ghosts included) and sets step/time,
    making the resumed trajectory bit-exact.  [None] when the directory
    holds no valid checkpoint.
    @raise Failure when the checkpoint's fields do not match this app's
    (field count, grid cells or bounds, ghost width, component count). *)

val create_resumable :
  spec -> checkpoint_dir:string -> t * Dg_resilience.Checkpoint.info option
(** The job-engine entry point: {!create} the app and, when
    [checkpoint_dir] already holds a valid checkpoint (a preempted or
    crashed earlier slice of the same job, or a whole-server restart),
    resume from it bit-exactly; the info says where the run picks up.
    A resumed app never evaluates the species' [init_f] or [init_em] nor
    solves the initial Poisson problem: the checkpoint supplies the
    whole state.  A fresh job ([None]) starts from the projected initial
    condition. *)

val field_model_name : field_model -> string
(** ["full-maxwell"] / ["ampere-only"] / ["poisson-es"] / ["static"]. *)

val spec_manifest : spec -> (string * Dg_obs.Obs.Json.t) list
(** Machine-readable summary of a spec's numeric identity (layout, basis,
    grid, species names, field model, scheme, cfl) — the fields trace
    manifests and job-status streams embed. *)

val run_resilient :
  ?policy:Dg_resilience.Retry.policy ->
  ?faults:Dg_resilience.Faults.t ->
  ?positivity:[ `Off | `Detect | `Repair ] ->
  ?supervisor:Dg_resilience.Supervisor.t ->
  ?checkpoint_every:int ->
  ?checkpoint_dir:string ->
  ?keep_last:int ->
  ?max_steps:int ->
  ?on_step:(t -> unit) ->
  t ->
  tend:float ->
  Dg_resilience.Retry.stats
(** Health-checked {!run} wrapped in the graceful-degradation ladder.
    This is the ladder's IO shell: it steps, fires [faults], runs tier 0
    and the health scan, and performs what the pure
    {!Dg_resilience.Retry.decide} decides for each closed window.

    - {b tier 0} ([positivity = `Repair]): after every step a
      mean-preserving linear-scaling limiter ({!Dg_limiter.Limiter})
      rescales cells whose expansion dips below zero at the control nodes
      — no rollback, no dt penalty.  [`Detect] only scans at window checks
      (negative cells then fail the window); [`Off] (default) ignores
      positivity entirely.
    - {b tier 1}: every [policy.check_every] steps the state is
      scanned for NaN/Inf, non-realizability, and energy jumps; an
      unhealthy window rolls back to the last-known-good copy and retries
      with a shrunk dt ceiling (consecutive failures compound —
      exponential backoff; healthy windows regrow the ceiling).
    - {b tier 2}: after [policy.max_retries] consecutive failed windows,
      restore the newest valid on-disk checkpoint (at most
      [policy.max_restores] times; needs [checkpoint_dir]).
    - {b tier 3}: clean abort — restore last-good, write a final
      checkpoint (when [checkpoint_dir] is given), raise [Failure].

    With [checkpoint_every = K > 0] (requires [checkpoint_dir]) periodic
    checkpoints are written only at healthy health-check windows, so each
    one is a state that passed a check: at the first healthy window at
    least K steps after the previous checkpoint (the first one K steps
    in).  [keep_last] bounds how many are retained (oldest pruned
    first).  [supervisor] is polled between
    steps: a stop request (SIGTERM/SIGINT or its [max_wall] budget)
    writes a final checkpoint of the last completed step and returns with
    [stats.stopped] set — restarting from it is bit-exact.  If the stop
    lands mid-window with the state already NaN/Inf-poisoned (injected
    corruption not yet caught by a health check), the run falls back to
    the last-known-good state before writing that final checkpoint, so a
    resume never faces a checkpoint it would refuse to start from.  [faults]
    injects deterministic faults ({!Dg_resilience.Faults}).  [on_step]
    fires after every step except the one that closes a failed health
    window: the steps inside that window have already fired when the
    window rolls them back, so [on_step] sees progress, not just accepted
    steps.
    @raise Failure when the initial state is already unhealthy, or when
    the ladder reaches tier 3. *)

(** {1 Tracing}

    With a trace attached, every {!step} appends one ["step"] JSONL record
    (spans, counters, gauges, GC deltas, wall time) to the file and clears
    the {!Dg_obs.Obs} aggregator, so each record covers exactly one step. *)

val attach_trace : t -> string -> unit
(** [attach_trace t path] enables {!Dg_obs.Obs}, writes a manifest record
    (layout, basis family, poly order, grid, species, field model, scheme,
    specialized/interpreted kernel-dispatch counts, host/git identity) to
    [path], and starts per-step profiling.  For the dispatch counts to be
    non-zero, call {!Dg_obs.Obs.enable} before {!create}. *)

val close_trace : t -> unit
(** Flush and close the attached trace (no-op without one). *)

(** {1 Diagnostics} *)

val total_mass : t -> int -> float
val kinetic_energy : t -> int -> float
val field_energy : t -> float

val field_energy_split : t -> float * float
(** (electric, magnetic) field energies — growth-rate diagnostics fit one
    of the two (Weibel: magnetic; Landau / two-stream: electric). *)

val total_energy : t -> float

val dof_per_step : t -> float
(** Degrees of freedom one step evolves: every species' phase-space
    coefficients, plus the 8-component EM field's configuration-space
    coefficients unless the field model is [Static] (throughput metrics
    divide by this). *)
