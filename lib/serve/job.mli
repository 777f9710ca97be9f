(** A parametrized simulation job: one named, prioritized [Vm_app] run with
    per-job resource limits and resilience knobs, described by a small JSON
    job file.  {!Engine} owns scheduling; this module owns the translation
    into [Vm_app.spec], [Retry.policy], and [Faults.t]. *)

type t = {
  id : string;  (** unique within a server run; [[A-Za-z0-9_.-]+] *)
  scenario : string;
      (** a {!Dg_scenarios.Scenarios} registry name; unknown names are
          rejected at parse/make time with the available list *)
  priority : int;  (** higher runs first (and preempts lower) *)
  cells_x : int;
  cells_v : int;
  poly_order : int;
  tend : float;
  cfl : float;
  max_steps : int;
  max_wall : float option;
      (** per-job wall budget, summed over slices (parked time free) *)
  checkpoint_every : int;
      (** periodic checkpoint cadence K (0 = only stops): a checkpoint is
          written at the first healthy health-check window at least K
          steps after the previous one, never between windows *)
  keep_last : int option;
  check_every : int;  (** health-check window ([Retry.policy]) *)
  max_retries : int;
  max_restores : int;
  crash_retries : int;
      (** engine-level restarts after an uncaught slice exception *)
  hang_retries : int;
      (** engine-level restarts after a watchdog-detected hang *)
  positivity : [ `Off | `Detect | `Repair ];
      (** tier-0 positivity mode of the job's ladder ({!run}) *)
  fault_nan_step : int option;  (** test/demo NaN bomb at this step *)
  fault_neg_step : int option;
      (** test/demo negative-overshoot bomb at this step *)
  fault_crash_step : int option;
      (** test/demo slice-killing crash bomb at this step *)
  fault_hang_step : int option;  (** test/demo hang bomb at this step *)
  fault_hang_s : float;  (** hang bomb stall duration (default 2 s) *)
  fault_ckpt_enospc : int;
      (** test/demo: first slice's next k checkpoint writes hit ENOSPC *)
  fault_ckpt_crash : Dg_resilience.Faults.crash option;
      (** test/demo: first slice's first checkpoint write crashes *)
}

val make :
  ?priority:int ->
  ?cells_x:int ->
  ?cells_v:int ->
  ?poly_order:int ->
  ?tend:float ->
  ?cfl:float ->
  ?max_steps:int ->
  ?max_wall:float ->
  ?checkpoint_every:int ->
  ?keep_last:int ->
  ?check_every:int ->
  ?max_retries:int ->
  ?max_restores:int ->
  ?crash_retries:int ->
  ?hang_retries:int ->
  ?positivity:[ `Off | `Detect | `Repair ] ->
  ?fault_nan_step:int ->
  ?fault_neg_step:int ->
  ?fault_crash_step:int ->
  ?fault_hang_step:int ->
  ?fault_hang_s:float ->
  ?fault_ckpt_enospc:int ->
  ?fault_ckpt_crash:Dg_resilience.Faults.crash ->
  id:string ->
  scenario:string ->
  unit ->
  t
(** Defaults: the scenario registry entry's cells, poly order and end
    time (its golden resolution), priority 0, cfl 0.9, max_steps
    1e6, no wall cap, checkpoint every 25 steps, health check
    every 10, retries 8 / restores 1 / crash retries 1 / hang retries 1,
    positivity off, no faults.
    @raise Invalid_argument on out-of-range fields (see {!validate}). *)

val validate : t -> unit
(** @raise Invalid_argument naming the offending field. *)

val of_json_result : ?id:string -> Dg_obs.Obs.Json.t -> (t, string) result
(** Total, bound-checked admission decoder — the only way arbitrary spool
    bytes become a job.  [id] is the fallback when the object has no
    ["id"] member (the spool scanner passes the file's basename).
    Recognized keys: [id, scenario, priority, cells (as [nx, nv]), p,
    tend, cfl, max_steps, max_wall, checkpoint_every, keep_last,
    check_every, max_retries, max_restores, crash_retries, hang_retries,
    positivity ("off" | "detect" | "repair"), fault_nan_step,
    fault_neg_step, fault_crash_step, fault_hang_step, fault_hang_s,
    fault_ckpt_enospc, fault_ckpt_crash ("before-rename" or a truncation
    byte count)]; missing keys take the {!make} defaults (the scenario
    registry's cells, p and tend).  Every numeric
    field is type- and range-checked, unknown and duplicate fields are
    reported by name, and no input value can make this raise. *)

val of_string_result : ?id:string -> string -> (t, string) result
(** Parse then {!of_json_result}; syntax errors, over-deep nesting, and
    decode errors all land in [Error]. *)

val of_string : ?id:string -> string -> t
(** {!of_string_result}, raising the error.
    @raise Dg_obs.Obs.Json.Parse_error on a syntax error,
    [Invalid_argument] on a malformed or out-of-range job. *)

val max_file_bytes : int
(** Byte-size cap on job files (64 KiB): a job description is a page of
    JSON; anything bigger is rejected before parsing. *)

val of_file_result :
  string -> (t, [ `Read of string | `Invalid of string ]) result
(** Read + decode one spool file without raising. [`Read] failures are
    transient (partial write still being copied, file renamed away by a
    concurrent actor, permissions) — the caller should retry on its next
    scan; [`Invalid] is a definitive parse/validate verdict (including the
    {!max_file_bytes} cap) — the caller should reject the file. *)

val load_file : string -> (t list, string) result
(** Read a job file: one job object, a bare JSON list of job objects, or
    an object with a ["jobs"] list.  Unnamed jobs take the file's
    basename (one job) or [<basename>-<position>] (a list) as id.  Never
    raises: a read, parse or decode failure is an [Error] that names the
    offending job and field. *)

val to_json : t -> Dg_obs.Obs.Json.t
(** The job's identifying fields, for status-stream records. *)

val to_json_full : t -> Dg_obs.Obs.Json.t
(** Every admission field, for shipping the job over the gate socket:
    [of_json_result (to_json_full j) = Ok j]. *)

val spec : t -> Dg_app.Vm_app.spec
(** The full simulation spec this job runs. *)

val policy : t -> Dg_resilience.Retry.policy
(** [Retry.default] with the job's window/budget overrides. *)

val faults :
  ?slice:int ->
  ?crashes:int ->
  ?hangs:int ->
  t ->
  steps_done:int ->
  Dg_resilience.Faults.t
(** The fault set to arm for a slice that resumes at [steps_done].  State
    bombs (NaN / negative) arm only while [steps_done] is below the bomb
    step, so a resumed slice re-arms a fault that has not yet happened in
    the job's life, but a retry that restarts past it does not re-fire one
    the ladder already paid for.  Process-level bombs are additionally
    gated on lifetime counters the engine passes in — the crash bomb arms
    only while [crashes = 0], the hang bomb only while [hangs = 0], and
    the checkpoint-write bombs only on the first slice ([slice = 1]) —
    because their own recovery path resumes below the bomb step and would
    otherwise re-fire forever.  Defaults ([slice = 1], zero counters) give
    a fresh job's first slice. *)

val run :
  ?faults:Dg_resilience.Faults.t ->
  ?supervisor:Dg_resilience.Supervisor.t ->
  ?on_step:(Dg_app.Vm_app.t -> unit) ->
  t ->
  Dg_app.Vm_app.t ->
  dir:string ->
  Dg_resilience.Retry.stats
(** Run [app] (built from {!spec}, possibly resumed) to the job's [tend]
    through [Vm_app]'s graceful-degradation ladder under the job's
    {!policy}, [positivity], [checkpoint_every], [keep_last] and
    [max_steps], checkpointing into [dir].  A run that was not stopped
    ([stats.stopped = None]) writes a final checkpoint of its end state.
    The engine's slice body and the chaos reference run both go through
    here.
    @raise Failure on a tier-3 abort or an unhealthy initial state, and
    whatever an armed crash bomb raises. *)
