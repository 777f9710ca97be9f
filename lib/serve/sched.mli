(** The job engine's scheduler core: every scheduling decision of
    {!Engine.run}, as a pure function [state -> event -> state * action
    list].

    The core performs no IO and reads no clock: clock readings and each
    running slice's {!probe} arrive as fields of events, and
    everything it wants done — launch or stop a slice, publish a status
    record, bump a counter, answer a gate request, settle a spool file —
    comes back as an {!action} for the shell ({!Engine.run}) to perform in
    order.  So the same event list always yields the same action list,
    and the scheduling invariants can be checked by driving {!step}
    directly.

    Decisions owned here: admission (duplicate-id rejects for initial and
    spool jobs; the gate's dup / overload / draining replies); launching
    queued jobs while slots are free (each running slice holds one of
    [config.total]); preemption, never before a slice has accepted a
    step; requeue-or-finish after a preempt, crash, hang, cancel or
    max-wall stop; the hung-slice watchdog, whose quarantine forfeits the
    hung slice's slot for good, and the "no worker slots remain" livelock
    guard; stale reports from quarantined slices; and drain.  It is also
    the one author of server status ({!server_status}, {!status_dump}). *)

module Json = Dg_obs.Obs.Json

type outcome =
  | Done  (** reached [tend] *)
  | Failed of string  (** the payload says why *)
  | Drained  (** parked at a valid checkpoint by a server drain *)

val outcome_to_string : outcome -> string

val max_wall_failure : string
(** The [Failed] payload of a job stopped by its own [max_wall]. *)

type config = {
  total : int;  (** slots (the engine's [concurrency]): at most this many
                    slices run at once *)
  slice_wall : float;  (** seconds before a slice yields to waiting jobs *)
  slice_deadline : float;  (** seconds of heartbeat stall before a hang *)
  admit_watermark : int;  (** gate submits refused at this queue depth *)
}

type slice = {
  slice : int;  (** the job's slice number, from 1 *)
  started_at : float;  (** clock of the [Admit] event that launched it *)
  start_steps : int;  (** job steps when it was launched *)
}
(** A running slice; it holds one slot. *)

type phase = Queued | Running of slice | Ended of outcome

type job = {
  job : Job.t;
  phase : phase;
  steps : int;  (** accepted steps over the job's whole life *)
  sim_time : float;
  consumed : float;  (** supervised wall seconds, summed over slices *)
  slices : int;
  preempts : int;
  crashes : int;
  hangs : int;
  dof : float;  (** DOF advanced by this server's slices (not by a run it
                    resumed from) *)
  cancel_req : bool;  (** a client cancel is racing the running slice *)
}

type ending =
  | Completed  (** reached [tend] (the final checkpoint is written) *)
  | Stopped of string  (** the slice supervisor's stop reason *)
  | Crashed of string  (** uncaught exception, printed *)

type report = {
  id : string;
  slice : int;
  ending : ending;
  steps : int;  (** job steps when the slice ended *)
  time : float;
  wall : float;  (** supervised seconds this slice consumed *)
  dof : float;  (** steps this slice advanced × DOF per step *)
}
(** What a slice sends back when its domain is done. *)

type probe = {
  id : string;
  slice : int;
  steps : int;  (** job steps the slice has reached *)
  time : float;  (** simulation time at [steps] *)
  heartbeat : float;  (** last sign of life, same clock as [Tick.now] *)
  started : float;
      (** the slice's start, same clock: its wall time so far is [now]
          minus this *)
}
(** A running slice's progress and liveness, sampled by the shell for a
    [Tick], a [Request] or a {!status_dump}. *)

type origin = Initial | Spool of string  (** the job file's path *)

type event =
  | Submit of Job.t * origin  (** initial batch or a decoded spool file *)
  | Invalid of { path : string; id : string; why : string }
      (** a spool file the decoder rejected *)
  | Request of { now : float; probes : probe list; req : Intake.request }
      (** from the gate; a running job's status reports its probe's live
          step and time, and its wall time as of [now] *)
  | Tick of { now : float; probes : probe list }
      (** preempt, then the watchdog *)
  | Report of report
  | Admit of { now : float }  (** launch queued jobs while slots are free *)
  | Drain of string  (** park everything; the reason is published *)

type action =
  | Emit of string * (string * Json.t) list
      (** a status-stream record: kind, fields *)
  | Count of string * int  (** bump an [Obs] counter *)
  | Launch of job * slice
      (** run one slice in its own domain, from the job's state before it
          ([steps], [consumed] as the supervisor's [elapsed_offset], and the
          [crashes] / [hangs] that gate fault re-arming) *)
  | Stop of { id : string; slice : int; reason : string }
      (** [Supervisor.request_stop] on that slice *)
  | Reply of Intake.reply  (** the answer to this [Request] *)
  | Accept_file of string  (** spool file admitted: mark it accepted *)
  | Reject_file of string * string  (** spool file refused, and why *)

type t

val create : config -> now:float -> t
(** An empty scheduler; [now] is the server's start, for [elapsed_s]. *)

val step : t -> event -> t * action list

(** {1 Views} *)

val jobs : t -> job list  (** submission order *)

val find : t -> string -> job option
val queued : t -> job list  (** queue order *)

val running : t -> job list  (** most recently launched first *)

val total : t -> int
(** Slots left; shrinks by one per watchdog quarantine, and only then.
    Free slots are [total] minus the running slices. *)

val draining : t -> string option
val rejects : t -> int  (** admission rejects (bad spool files, dup ids) *)

val hangs_detected : t -> int

val finished : t -> exit_on_idle:bool -> bool
(** Draining with nothing running, or idle and [exit_on_idle]. *)

type tally = { done_ : int; failed : int; drained : int; steps : int }

val tally : t -> tally
(** Outcome counts and total steps over every known job. *)

(** {1 Status} *)

val server_status :
  t -> now:float -> probes:probe list -> (string * Json.t) list
(** The server's status, as the fields of one JSON object: [queue_depth],
    [inflight_jobs] (running slices), [admit_watermark], the
    [done] / [failed] / [drained] tallies, [steps] (summed over jobs, a
    running job's as its slice's probe shows it, another's as of its last
    ended slice), [draining] (the reason, or null),
    [elapsed_s], [rejects] (admission rejects), [slots_quarantined],
    [hangs_detected] and [stuck] (quarantined slices that have not
    reported).  The gate's whole-server [status] reply is
    this object; the periodic ["server"] record is it with
    ["event": "tick"] in front. *)

val status_dump : t -> now:float -> probes:probe list -> string
(** The SIGUSR1 text: ["serve: "] and {!server_status} as [key=value]
    pairs, then one indented line per running job (most recently launched
    first, with its probe's live step and [t], and its [wall_s] as of
    [now]) and per queued job (queue
    order), each the job's gate [status] reply as [key=value] pairs. *)
