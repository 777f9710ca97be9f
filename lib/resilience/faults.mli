(** Deterministic fault injection for the resilience test harness: poison a
    state field at step k, crash a checkpoint mid-write, kill or stall a
    slice, corrupt files on disk.  Every fault is one-shot, so a
    rollback/retry replay does not re-trigger it, and each [maybe_*] that
    fires counts itself once in the [resilience.faults_injected] counter. *)

exception Injected of string
(** Raised by injected faults (simulated slice deaths, checkpoint crashes). *)

(** How a checkpoint write "crashes" (consulted by
    [Dg_resilience.Checkpoint.write]). *)
type crash =
  | Crash_before_rename  (** tmp file fully written but never renamed *)
  | Crash_truncate of int  (** tmp file cut to the first [k] bytes *)

type t = {
  mutable nan_step : int option;
      (** poison the first state field after this step *)
  mutable nan_fired : bool;
  mutable neg_step : int option;
      (** negative-overshoot the first state field after this step *)
  mutable neg_fired : bool;
  mutable ckpt_crash : crash option;
  mutable ckpt_enospc : int;
      (** disk-full bomb: the next [k] checkpoint data writes fail with
          ENOSPC (consulted by [Checkpoint.write], decremented per failure) *)
  mutable crash_step : int option;
      (** kill the slice: {!maybe_crash} raises after this step *)
  mutable crash_fired : bool;
  mutable hang_step : int option;
      (** stall the slice: {!maybe_hang} sleeps after this step *)
  mutable hang_s : float;  (** stall duration in seconds (default 2.0) *)
  mutable hang_fired : bool;
}

val none : unit -> t
(** All faults disarmed. *)

val armed : t -> bool
(** Is a state-poisoning injection (NaN or negative) still pending? *)

val maybe_inject_nan : t -> step:int -> Dg_grid.Field.t list -> unit
(** Fire the NaN fault if [step >= nan_step] and it has not fired yet:
    sets one mid-domain interior coefficient of the first field to NaN. *)

val maybe_inject_negative : t -> step:int -> Dg_grid.Field.t list -> unit
(** Fire the negative-overshoot fault: drives a mid-domain interior cell
    pointwise negative (large negative mode-1 slope) while preserving its
    cell average — finite, positive-mean, and repairable by the positivity
    limiter. *)

val maybe_crash : t -> step:int -> unit
(** Simulated process death: raise {!Injected} once when [step >=
    crash_step].  The state and on-disk checkpoints are left exactly as a
    SIGKILL at a step boundary would leave them. *)

val maybe_hang : t -> step:int -> unit
(** Simulated hang: sleep [hang_s] seconds once when [step >= hang_step],
    without touching the state — to a heartbeat watchdog this looks like a
    livelocked slice. *)

val truncate_file : string -> keep:int -> unit
(** Cut a file to its first [keep] bytes (simulated torn write). *)

val corrupt_byte : string -> at:int -> unit
(** Flip every bit of the byte at offset [at] (simulated bit rot). *)
