(* Wire framing for the gate: a 4-byte big-endian length prefix followed
   by that many payload bytes (JSON, but this layer does not care).  The
   length is capped at [Job.max_file_bytes] (64 KiB) — same bound as a
   spool file, for the same reason: a job description is a page of JSON,
   and anything bigger is garbage or an attack on the parser.

   All IO is deadline-bounded via SO_RCVTIMEO / SO_SNDTIMEO, with the
   remaining budget re-armed before every syscall, so neither side can be
   wedged by a peer that stops mid-frame (slow-loris).  Reads distinguish
   a clean close between frames ([Closed]) from a connection dying with a
   frame half-delivered ([Mid_frame]) — the chaos harness injects both
   and the server counts them separately. *)

type addr = Unix_sock of string

type error =
  | Idle  (* no frame began within the idle window *)
  | Timeout  (* frame began but stalled past its budget (slow-loris) *)
  | Closed  (* EOF on a frame boundary *)
  | Mid_frame  (* EOF with a frame partially transferred *)
  | Oversize of int  (* declared length beyond the cap *)
  | Io of string  (* everything else the OS can say *)

let error_to_string = function
  | Idle -> "idle timeout"
  | Timeout -> "deadline expired mid-frame"
  | Closed -> "connection closed"
  | Mid_frame -> "connection closed mid-frame"
  | Oversize n -> Printf.sprintf "frame of %d bytes exceeds the cap" n
  | Io m -> m

let max_frame_bytes = Dg_serve.Job.max_file_bytes

(* Arm the socket timeout with the budget left until [deadline].  A zero
   SO_RCVTIMEO means "block forever", so the remaining budget is floored
   at 1 ms; a deadline already in the past times out before the syscall. *)
let arm fd opt ~deadline =
  let remaining = deadline -. Unix.gettimeofday () in
  if remaining <= 0.0 then false
  else begin
    Unix.setsockopt_float fd opt (Float.max 0.001 remaining);
    true
  end

let rec read_into fd buf off len ~deadline ~got_bytes =
  if len = 0 then Ok ()
  else if not (arm fd Unix.SO_RCVTIMEO ~deadline) then Error Timeout
  else
    match Unix.read fd buf off len with
    | 0 -> Error (if got_bytes then Mid_frame else Closed)
    | n -> read_into fd buf (off + n) (len - n) ~deadline ~got_bytes:true
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> Error Timeout
    | exception Unix.Unix_error (EINTR, _, _) ->
        read_into fd buf off len ~deadline ~got_bytes
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
        Error (if got_bytes then Mid_frame else Closed)
    | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))

let rec write_from fd buf off len ~deadline =
  if len = 0 then Ok ()
  else if not (arm fd Unix.SO_SNDTIMEO ~deadline) then Error Timeout
  else
    match Unix.write fd buf off len with
    | n -> write_from fd buf (off + n) (len - n) ~deadline
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> Error Timeout
    | exception Unix.Unix_error (EINTR, _, _) -> write_from fd buf off len ~deadline
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> Error Closed
    | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))

(* [idle_budget] bounds the wait for the frame's FIRST byte (how long a
   connection may sit quiet between requests); once anything has arrived
   the whole frame — header and payload — must complete within
   [frame_budget] seconds of that first byte.  The split is the
   slow-loris defense: a client may idle politely, but may not trickle a
   frame. *)
let read_frame ?(max_bytes = max_frame_bytes) ~idle_budget ~frame_budget fd =
  let hdr = Bytes.create 4 in
  let idle_deadline = Unix.gettimeofday () +. idle_budget in
  (* first byte on the idle clock... *)
  match read_into fd hdr 0 1 ~deadline:idle_deadline ~got_bytes:false with
  | Error Timeout -> Error Idle
  | Error _ as e -> e
  | Ok () -> (
      (* ...rest of the frame on the per-frame clock *)
      let deadline = Unix.gettimeofday () +. frame_budget in
      match read_into fd hdr 1 3 ~deadline ~got_bytes:true with
      | Error _ as e -> e
      | Ok () ->
          let b i = Bytes.get_uint8 hdr i in
          let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
          if len > max_bytes then Error (Oversize len)
          else
            let payload = Bytes.create len in
            (match read_into fd payload 0 len ~deadline ~got_bytes:true with
            | Error _ as e -> e
            | Ok () -> Ok (Bytes.unsafe_to_string payload)))

let write_frame ~budget fd payload =
  let len = String.length payload in
  if len > max_frame_bytes then Error (Oversize len)
  else begin
    let buf = Bytes.create (4 + len) in
    Bytes.set_uint8 buf 0 ((len lsr 24) land 0xff);
    Bytes.set_uint8 buf 1 ((len lsr 16) land 0xff);
    Bytes.set_uint8 buf 2 ((len lsr 8) land 0xff);
    Bytes.set_uint8 buf 3 (len land 0xff);
    Bytes.blit_string payload 0 buf 4 len;
    write_from fd buf 0 (4 + len) ~deadline:(Unix.gettimeofday () +. budget)
  end

let connect ?(deadline = 5.0) (Unix_sock path) =
  match
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO deadline;
      Unix.connect fd (Unix.ADDR_UNIX path)
    with
    | () -> Ok fd
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  with
  | r -> r
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | ETIMEDOUT), _, _) ->
      Error Timeout
  | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))

let listen ?(backlog = 16) (Unix_sock path) =
  (* assume a stale socket from a dead server — the engine owns its root
     directory, so two live servers on one path is operator error *)
  (if Sys.file_exists path then
     try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd backlog
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd
