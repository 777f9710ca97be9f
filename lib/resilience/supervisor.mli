(** Run supervision: turns SIGTERM/SIGINT and a wall-clock deadline into a
    clean checkpoint-then-exit at the next step boundary, and SIGUSR1 into
    a live status line.

    Handlers only flip atomics; the stepping loop polls {!should_stop}
    between steps and performs the shutdown itself.  A stop always lands on
    a step boundary, so the final checkpoint is an ordinary one and
    restarting from it is bit-exact. *)

type t

(** Why a supervised run is stopping. *)
type reason =
  | Signal of string  (** ["SIGTERM"], ["SIGINT"], ... *)
  | Max_wall  (** the [--max-wall] budget ran out *)

val pp_reason : Format.formatter -> reason -> unit
val reason_to_string : reason -> string

val create : ?max_wall:float -> ?elapsed_offset:float -> unit -> t
(** A supervisor with no handlers installed yet.  [max_wall] is a
    wall-seconds budget measured from creation.  [elapsed_offset]
    (default 0) charges wall seconds that earlier segments of the same
    logical run already consumed — a preempted-then-resumed job or a
    restarted process — against the budget: {!elapsed} reports
    [offset + seconds since this create], so a resumed run neither restarts
    its budget nor inherits the wall-clock time the dead run spent parked.
    @raise Invalid_argument unless [max_wall > 0] and
    [elapsed_offset >= 0] when given. *)

val install : t -> unit
(** Install the SIGTERM/SIGINT (request stop) and SIGUSR1 (request status
    dump) handlers, remembering the previous behaviors. *)

val uninstall : t -> unit
(** Restore the signal behaviors saved by {!install}. *)

val with_supervisor : ?max_wall:float -> (t -> 'a) -> 'a
(** [create], [install], run, then [uninstall] (also on exceptions). *)

val request_stop : t -> string -> unit
(** Request a stop as if a signal named [why] had arrived (what the
    handlers call; also the test hook — async-signal-safe).  The first
    request wins; later ones do not overwrite the reason. *)

val set_status : t -> (unit -> string) -> unit
(** What a pending SIGUSR1 prints — called from {!should_stop} (ordinary
    code, never from the handler).  The renderer may return multiple
    newline-separated lines: [dg_serve]'s engine installs a multi-job
    renderer (one line per job plus an aggregate line); without one the
    status is ["running"].  Every line is prefixed with ["[vmdg] "]. *)

val dump_status : t -> unit
(** Print the current status to stderr immediately (what a drained SIGUSR1
    does; also lets a server loop dump on its own cadence). *)

val started : t -> float
(** The [Unix.gettimeofday] clock at {!create}. *)

val elapsed : t -> float
(** [elapsed_offset] plus wall seconds since {!create}. *)

val should_stop : t -> reason option
(** Poll at every step boundary: drains a pending SIGUSR1 dump to stderr,
    then reports whether a signal arrived or the wall budget ran out. *)
