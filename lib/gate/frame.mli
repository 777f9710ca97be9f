(** Wire framing for the gate over a Unix-domain stream socket: 4-byte
    big-endian length prefix + payload bytes, length capped at
    {!max_frame_bytes} (the spool-file cap, 64 KiB).  All IO is deadline-bounded (SO_RCVTIMEO / SO_SNDTIMEO re-armed
    with the remaining budget before every syscall) so a peer that stops
    mid-frame can never wedge the other side. *)

type addr = Unix_sock of string  (** the socket's path *)

type error =
  | Idle  (** no frame began within the idle window *)
  | Timeout  (** a frame began but stalled past its budget (slow-loris) *)
  | Closed  (** EOF on a frame boundary (clean close) *)
  | Mid_frame  (** EOF with a frame partially transferred *)
  | Oversize of int  (** declared or given length beyond the cap *)
  | Io of string

val error_to_string : error -> string

val max_frame_bytes : int
(** = [Dg_serve.Job.max_file_bytes] (64 KiB). *)

val read_frame :
  ?max_bytes:int ->
  idle_budget:float ->
  frame_budget:float ->
  Unix.file_descr ->
  (string, error) result
(** Read one frame.  Budgets are in seconds: the frame's first byte may
    arrive up to [idle_budget] from now (connections may idle between
    requests; expiry is [Idle]), but once a byte has arrived the whole
    frame must complete within [frame_budget] of it (expiry is [Timeout])
    — the slow-loris split. *)

val write_frame : budget:float -> Unix.file_descr -> string -> (unit, error) result
(** Write one frame (header + payload) within [budget] seconds. *)

val connect : ?deadline:float -> addr -> (Unix.file_descr, error) result
(** Blocking connect; [deadline] (default 5 s) also bounds the socket's
    sends until a frame call re-arms it. *)

val listen : ?backlog:int -> addr -> Unix.file_descr
(** Bind + listen; unlinks a stale socket at the path first.
    @raise Unix.Unix_error when the address cannot be bound. *)
