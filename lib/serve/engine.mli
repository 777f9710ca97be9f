(** The job engine: runs a queue of {!Job.t} simulations concurrently on
    [concurrency] slots, one per running slice, with checkpoint-based
    preemption.

    {b Core and shell.}  Every scheduling decision is made by {!Sched}, a
    pure, deterministic state machine ([state -> event -> state * action
    list]).  [run] is its IO shell: it spawns and joins slice domains,
    carries their reports through a mailbox, scans the spool, serves the
    gate's {!Intake}, writes the status stream and gauges and polls the
    server supervisor — feeding each of these to the core as an event
    (clock readings and slice progress and heartbeats included) and
    performing the actions it returns.  Every status view — the gate's
    replies, the periodic ["server"] record, the SIGUSR1 dump — is
    {!Sched}'s rendering.

    Each admitted job runs one {i slice} at a time in its own domain — an
    ordinary {!Job.run} call under a per-slice supervisor that
    the engine stops from outside ([request_stop _ "preempt"]), making the
    slice checkpoint at the next step boundary and yield; resuming via
    [Vm_app.create_resumable] is bit-exact.  Crashed slices are contained
    in their domain and retried from the last checkpoint up to the job's
    [crash_retries] before the job is marked failed; the server survives.
    A stop on the engine's own supervisor (SIGTERM, max-wall) drains: all
    running slices checkpoint and every job is parked as [Drained].

    {b Hung slices.}  Every slice publishes a heartbeat the stepper bumps
    after each RHS stage; a heartbeat stalled past [slice_deadline] marks
    a poisoned slice.  Since a domain cannot be force-terminated, the
    slice's slot is permanently {e quarantined} (one slot fewer for the
    rest of the run), the domain is parked, and the job is requeued from its last
    valid checkpoint up to [hang_retries] times before the tier-3 verdict
    — sibling jobs are unaffected, and a quarantined domain that
    eventually wakes up is joined and discarded via its stale report.

    {b Admission.}  Spool files go through [Job.of_file_result], a total
    bound-checked decoder: malformed or out-of-range files are renamed
    [.rejected] with the reason in a sibling [.rejected.why] file (counted
    as [serve.admission_rejects]); files that merely fail to {e read}
    (partial write, concurrent rename, permissions) are retried on the
    next scan instead of being rejected. *)

type config = {
  concurrency : int;  (** slots: at most this many slices run at once *)
  slice_wall : float;
      (** seconds a slice may run before it is preempted {i when other
          jobs are waiting}; a lone job runs uninterrupted *)
  slice_deadline : float;
      (** seconds a slice's heartbeat may stall before the watchdog
          declares it hung and quarantines its slot; must comfortably
          exceed app construction plus one RK stage *)
  poll_interval : float;  (** scheduler poll period (seconds) *)
  status_path : string option;  (** JSONL status stream (None = silent) *)
  status_append : bool;  (** append instead of truncate (server restarts) *)
  status_every : float;
      (** seconds between periodic ["server"] records
          ([Sched.server_status] with ["event": "tick"]) *)
  progress_every : int;  (** steps between per-job ["progress"] records *)
  root : string;  (** checkpoint root; jobs live in [root/jobs/<id>/] *)
  spool : string option;
      (** directory scanned for new [*.json] job files; consumed files are
          renamed [.accepted] / [.rejected].  An empty spool is rescanned
          on a jittered exponential backoff (base [poll_interval], capped
          at min(1 s, 50 polls)) that resets to every-tick on activity *)
  exit_on_idle : bool;
      (** return once every job has ended (false: keep serving the spool
          until the supervisor stops us) *)
  intake : Intake.t option;
      (** control channel for the socket gate: the scheduler drains it
          every iteration, answering submit (idempotent by id) / status /
          cancel / drain requests.  Create a fresh one per run; the
          engine closes it on exit.  With an intake and no initial jobs,
          pair with [exit_on_idle = false] or the engine returns before
          a client can connect. *)
  admit_watermark : int;
      (** gate submits are refused with [Overloaded] once the ready-queue
          depth reaches this (the same depth published as the
          [serve.queue_depth] gauge); spool and initial-job admission are
          not throttled *)
}

val default_config : root:string -> config
(** concurrency 2, slice_wall 5s, slice_deadline 60s, poll 20ms, no status
    sink, status every 5s, progress every 50 steps, no spool, exit on
    idle, no intake, admit watermark 64.  Same-basis jobs always share
    coupling tensors through the solver's process-wide kernel cache. *)

type outcome =
  | Done  (** reached [tend]; a final checkpoint is the result artifact *)
  | Failed of string
      (** tier-3 abort, [max_steps]/[max_wall] exhausted, or crash retries
          exhausted — the payload says which *)
  | Drained  (** parked at a valid checkpoint by a server shutdown *)

val outcome_to_string : outcome -> string

type record = {
  job : Job.t;
  outcome : outcome;
  steps : int;  (** accepted steps over the job's whole life *)
  sim_time : float;
  wall_s : float;  (** supervised wall seconds, summed over slices *)
  slices : int;
  preempts : int;
  crash_retries_used : int;
  hangs : int;  (** watchdog-detected hangs over the job's whole life *)
  dof : float;  (** degrees of freedom advanced: steps x DOF per step *)
  checkpoint_dir : string;
}

type summary = {
  records : record list;  (** submission order *)
  wall_s : float;
  jobs_done : int;
  jobs_failed : int;
  jobs_drained : int;
  total_steps : int;
  total_preempts : int;
  total_slices : int;
  agg_dof : float;
  agg_dof_s : float;  (** aggregate DOF advanced per wall second *)
  jobs_per_hour : float;  (** completed jobs per hour of server wall time *)
  cache_hits : int;  (** kernel-registry cache hits during this run *)
  cache_misses : int;
  watchdog_hangs : int;  (** hung slices detected by the watchdog *)
  slots_quarantined : int;
      (** slots permanently surrendered to stuck domains *)
  admission_rejects : int;
      (** jobs refused at admission (bad spool files, duplicate ids) *)
  stopped : string option;  (** why the server drained, [None] if idle-exit *)
}

val run : ?jobs:Job.t list -> ?supervisor:Dg_resilience.Supervisor.t -> config -> summary
(** Run [jobs] (plus anything the spool delivers) to completion and return
    the summary.  [supervisor] is the server's own: install it for signal
    handling in a CLI, or keep it handler-less and call [request_stop]
    from a test; the engine installs {!Sched.status_dump} on it as the
    SIGUSR1 renderer.  Duplicate job ids are rejected (counted in the
    status stream), not fatal.
    @raise Invalid_argument on a nonsensical config. *)

val pp_summary : Format.formatter -> summary -> unit
