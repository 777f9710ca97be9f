(* The gate server: an accept loop plus one systhread per connection,
   running beside the engine's scheduler and feeding it through an
   [Intake].  The server makes NO admission decisions — submit/status/
   cancel/drain are forwarded to the scheduler thread, which answers
   against the authoritative queue (dedup, watermark, drain state); only
   [ping] is answered locally, so a liveness probe works even while the
   engine is busy inside a poll interval.

   Robustness posture, in order of appearance:
   - connection cap: beyond [max_conns] concurrent clients, new ones get
     an immediate [overloaded] frame and a close — never an unbounded
     thread pile;
   - per-frame deadlines ([Frame]): idle politely, never trickle — a
     stalled or mid-frame-dead client costs one thread for at most
     [io_deadline] seconds;
   - bad frames (unparseable JSON, unknown verbs, invalid jobs) get a
     best-effort [error] response and the connection stays up — framing
     is length-delimited, so one bad payload does not desync the stream.
     Oversize declarations DO close the connection: the stream position
     after an overlong header cannot be trusted;
   - stop flushes in-flight responses: connections are shut down for
     RECEIVE only, handler threads finish writing and are joined.

   Threads share the calling domain's Obs buffer, which is not safe for
   concurrent mutation, so handlers record into per-server [Atomic]
   stats; [stop] publishes them as [gate.*] counters from the caller's
   thread. *)

module Obs = Dg_obs.Obs
module Json = Obs.Json
module Intake = Dg_serve.Intake

type config = {
  addr : Frame.addr;
  io_deadline : float;  (* per-frame read/write budget once bytes flow *)
  idle_timeout : float;  (* quiet time allowed between frames *)
  max_conns : int;
  intake_timeout : float;  (* how long a handler waits on the scheduler *)
  backlog : int;
}

let default_config ~addr =
  {
    addr;
    io_deadline = 2.0;
    idle_timeout = 30.0;
    max_conns = 32;
    intake_timeout = 5.0;
    backlog = 16;
  }

type stats = {
  conns : int Atomic.t;
  conn_sheds : int Atomic.t;
  frames_in : int Atomic.t;
  frames_out : int Atomic.t;
  requests : int Atomic.t;
  bad_frames : int Atomic.t;
  oversize_frames : int Atomic.t;
  idle_closes : int Atomic.t;
  deadline_closes : int Atomic.t;
  mid_frame_disconnects : int Atomic.t;
  handler_errors : int Atomic.t;
}

let stats_fields s =
  [
    ("gate.conns", s.conns);
    ("gate.conn_sheds", s.conn_sheds);
    ("gate.frames_in", s.frames_in);
    ("gate.frames_out", s.frames_out);
    ("gate.requests", s.requests);
    ("gate.bad_frames", s.bad_frames);
    ("gate.oversize_frames", s.oversize_frames);
    ("gate.idle_closes", s.idle_closes);
    ("gate.deadline_closes", s.deadline_closes);
    ("gate.mid_frame_disconnects", s.mid_frame_disconnects);
    ("gate.handler_errors", s.handler_errors);
  ]

type t = {
  cfg : config;
  intake : Intake.t;
  listen_fd : Unix.file_descr;
  stopping : bool Atomic.t;
  m : Mutex.t;
  mutable handlers : (Unix.file_descr * Thread.t) list;
  mutable accept_thread : Thread.t option;
  st : stats;
}

let bump a = Atomic.incr a

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let reply_of_intake = function
  | Intake.Accepted { dup } -> Protocol.Accepted { dup }
  | Intake.Overloaded { queue_depth; watermark } ->
      Protocol.Overloaded { queue_depth; watermark }
  | Intake.Rejected why -> Protocol.Rejected why
  | Intake.Draining -> Protocol.Draining
  | Intake.Status_of j -> Protocol.Status_of j
  | Intake.Unknown_id id -> Protocol.Unknown_id id

let send t fd resp =
  let payload = Json.to_string (Protocol.response_to_json resp) in
  match Frame.write_frame fd ~budget:t.cfg.io_deadline payload with
  | Ok () ->
      bump t.st.frames_out;
      true
  | Error _ -> false

let handle_request t payload =
  match Protocol.request_of_string payload with
  | Error why ->
      bump t.st.bad_frames;
      Protocol.Proto_error why
  | Ok Protocol.Ping ->
      bump t.st.requests;
      Protocol.Pong
  | Ok req -> (
      bump t.st.requests;
      let ireq =
        match req with
        | Protocol.Submit job -> Intake.Submit job
        | Protocol.Status id -> Intake.Status id
        | Protocol.Cancel id -> Intake.Cancel id
        | Protocol.Drain why -> Intake.Drain why
        | Protocol.Ping -> assert false
      in
      match Intake.post ~timeout:t.cfg.intake_timeout t.intake ireq with
      | Some r -> reply_of_intake r
      | None ->
          (* the scheduler did not answer in time; submits are idempotent,
             so "just retry" is always a safe instruction *)
          Protocol.Proto_error "engine did not answer in time; retry")

let conn_loop t fd =
  let continue_ = ref true in
  while !continue_ && not (Atomic.get t.stopping) do
    match
      Frame.read_frame fd ~idle_budget:t.cfg.idle_timeout
        ~frame_budget:t.cfg.io_deadline
    with
    | Ok payload ->
        bump t.st.frames_in;
        if not (send t fd (handle_request t payload)) then continue_ := false
    | Error Frame.Closed -> continue_ := false
    | Error Frame.Idle ->
        bump t.st.idle_closes;
        continue_ := false
    | Error Frame.Timeout ->
        (* slow-loris: frame started, never finished *)
        bump t.st.deadline_closes;
        continue_ := false
    | Error Frame.Mid_frame ->
        bump t.st.mid_frame_disconnects;
        continue_ := false
    | Error (Frame.Oversize n) ->
        bump t.st.oversize_frames;
        ignore
          (send t fd
             (Protocol.Proto_error
                (Printf.sprintf "frame of %d bytes exceeds the %d-byte cap" n
                   Frame.max_frame_bytes)));
        (* stream position after an overlong header is untrustworthy *)
        continue_ := false
    | Error (Frame.Io _) -> continue_ := false
  done

let handler t fd =
  (try conn_loop t fd with _ -> bump t.st.handler_errors);
  (* deregister-then-close under the lock: [stop] shuts down only fds
     still in the list, so it can never touch a recycled descriptor *)
  with_lock t.m (fun () ->
      t.handlers <- List.filter (fun (fd', _) -> fd' != fd) t.handlers;
      try Unix.close fd with Unix.Unix_error _ -> ())

let accept_loop t =
  while not (Atomic.get t.stopping) do
    match Unix.accept ~cloexec:true t.listen_fd with
    | fd, _ ->
        bump t.st.conns;
        let admitted =
          with_lock t.m (fun () ->
              if
                Atomic.get t.stopping
                || List.length t.handlers >= t.cfg.max_conns
              then false
              else begin
                (* placeholder thread id: replaced just below, before
                   anyone can join it *)
                t.handlers <- (fd, Thread.self ()) :: t.handlers;
                true
              end)
        in
        if not admitted then begin
          bump t.st.conn_sheds;
          ignore
            (send t fd
               (Protocol.Overloaded
                  { queue_depth = t.cfg.max_conns;
                    watermark = t.cfg.max_conns }));
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
        else begin
          let th = Thread.create (fun () -> handler t fd) () in
          with_lock t.m (fun () ->
              t.handlers <-
                List.map
                  (fun (fd', th') -> if fd' == fd then (fd, th) else (fd', th'))
                  t.handlers)
        end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        () (* periodic wake to check [stopping] *)
    | exception Unix.Unix_error _ ->
        if not (Atomic.get t.stopping) then Unix.sleepf 0.05
  done

let start ~intake cfg =
  if cfg.io_deadline <= 0.0 then invalid_arg "Gate: io_deadline must be > 0";
  if cfg.idle_timeout <= 0.0 then invalid_arg "Gate: idle_timeout must be > 0";
  if cfg.max_conns < 1 then invalid_arg "Gate: max_conns must be >= 1";
  (* a client dying mid-response must be an [EPIPE], not a process kill *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd = Frame.listen ~backlog:cfg.backlog cfg.addr in
  (* accept wakes every 100 ms to notice [stopping] — no self-pipe needed *)
  Unix.setsockopt_float listen_fd Unix.SO_RCVTIMEO 0.1;
  let t =
    {
      cfg;
      intake;
      listen_fd;
      stopping = Atomic.make false;
      m = Mutex.create ();
      handlers = [];
      accept_thread = None;
      st =
        {
          conns = Atomic.make 0;
          conn_sheds = Atomic.make 0;
          frames_in = Atomic.make 0;
          frames_out = Atomic.make 0;
          requests = Atomic.make 0;
          bad_frames = Atomic.make 0;
          oversize_frames = Atomic.make 0;
          idle_closes = Atomic.make 0;
          deadline_closes = Atomic.make 0;
          mid_frame_disconnects = Atomic.make 0;
          handler_errors = Atomic.make 0;
        };
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let stats t = List.map (fun (k, a) -> (k, Atomic.get a)) (stats_fields t.st)

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* accept loop first: no new connections can register after this *)
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (let (Frame.Unix_sock path) = t.cfg.addr in
     try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
    (* RECEIVE-only shutdown: blocked reads wake with EOF, but a handler
       mid-response still flushes its write before exiting *)
    let ths =
      with_lock t.m (fun () ->
          List.iter
            (fun (fd, _) ->
              try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
              with Unix.Unix_error _ -> ())
            t.handlers;
          List.map snd t.handlers)
    in
    List.iter Thread.join ths;
    (* single-threaded again: safe to publish into the domain's Obs buffer *)
    List.iter (fun (k, a) -> Obs.count k (Atomic.get a)) (stats_fields t.st)
  end
