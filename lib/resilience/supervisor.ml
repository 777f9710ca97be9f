(* Run supervision: signals and wall-clock deadlines turned into a clean
   checkpoint-then-exit at the NEXT STEP BOUNDARY.

   Signal handlers must do almost nothing (they can run at any allocation
   point), so each one only flips an atomic flag; the stepping loop polls
   [should_stop] between steps and performs the orderly shutdown itself —
   write a final checkpoint of the last completed step, record why, exit.
   Because the stop lands on a step boundary the checkpoint is an ordinary
   one: restarting from it is bit-exact, as if the run had simply been
   configured to end there.

     SIGTERM / SIGINT  -> stop at the next step boundary
     SIGUSR1           -> dump the status renderer's lines to stderr, keep
                          going (vmdg serve renders one line per job)
     max_wall N        -> same clean stop once N wall seconds have elapsed
                          (vmdg serve --max-wall, a job's max_wall) *)

type reason = Signal of string | Max_wall

let pp_reason ppf = function
  | Signal name -> Format.pp_print_string ppf name
  | Max_wall -> Format.pp_print_string ppf "max-wall"

let reason_to_string r = Format.asprintf "%a" pp_reason r

type t = {
  stop : string option Atomic.t; (* signal name once a stop is requested *)
  usr1 : bool Atomic.t; (* a status dump is pending *)
  max_wall : float option; (* wall-second budget, if any *)
  started : float; (* Unix.gettimeofday at creation *)
  offset : float; (* wall seconds already consumed by earlier run segments *)
  mutable installed : (int * Sys.signal_behavior) list; (* for uninstall *)
  mutable status : unit -> string; (* what SIGUSR1 prints *)
}

(* [elapsed_offset] charges wall seconds a previous segment of the same
   logical run already consumed (a preempted-then-resumed job, a restarted
   process) against this supervisor's [max_wall] budget — without it a
   resumed run would either restart its budget from zero or, worse, be
   charged for the wall time the dead run spent parked on disk.  Only time
   actually supervised counts: offset + seconds since THIS create. *)
let create ?max_wall ?(elapsed_offset = 0.0) () =
  (match max_wall with
  | Some w when not (w > 0.0) ->
      invalid_arg "Supervisor.create: max_wall must be > 0"
  | _ -> ());
  if not (elapsed_offset >= 0.0) then
    invalid_arg "Supervisor.create: elapsed_offset must be >= 0";
  {
    stop = Atomic.make None;
    usr1 = Atomic.make false;
    max_wall;
    started = Unix.gettimeofday ();
    offset = elapsed_offset;
    installed = [];
    status = (fun () -> "running");
  }

let signal_name s =
  if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigint then "SIGINT"
  else if s = Sys.sigusr1 then "SIGUSR1"
  else Printf.sprintf "signal %d" s

(* First stop signal wins; later ones must not overwrite the recorded
   reason (compare_and_set, not set). *)
let request_stop t why = ignore (Atomic.compare_and_set t.stop None (Some why))

let install t =
  let hook s behavior =
    let prev = Sys.signal s behavior in
    t.installed <- (s, prev) :: t.installed
  in
  hook Sys.sigterm
    (Sys.Signal_handle (fun s -> request_stop t (signal_name s)));
  hook Sys.sigint (Sys.Signal_handle (fun s -> request_stop t (signal_name s)));
  hook Sys.sigusr1 (Sys.Signal_handle (fun _ -> Atomic.set t.usr1 true))

let uninstall t =
  List.iter (fun (s, prev) -> Sys.set_signal s prev) t.installed;
  t.installed <- []

let with_supervisor ?max_wall f =
  let t = create ?max_wall () in
  install t;
  Fun.protect ~finally:(fun () -> uninstall t) (fun () -> f t)

(* The status renderer may return multiple lines (dg_serve's engine
   installs a multi-job renderer: one line per job plus an aggregate line);
   each line gets the "[vmdg]" prefix so tail-style consumers can filter. *)
let set_status t status = t.status <- status

let started t = t.started
let elapsed t = t.offset +. (Unix.gettimeofday () -. t.started)

let dump_status t =
  String.split_on_char '\n' (t.status ())
  |> List.iter (fun line -> Printf.eprintf "[vmdg] %s\n" line);
  flush stderr

(* Polled by the stepping loop at every step boundary.  Also drains a
   pending SIGUSR1 status dump (stderr, flushed) — the dump happens here,
   in ordinary code, never inside the handler. *)
let should_stop t =
  if Atomic.compare_and_set t.usr1 true false then dump_status t;
  match Atomic.get t.stop with
  | Some name -> Some (Signal name)
  | None -> (
      match t.max_wall with
      | Some w when elapsed t >= w -> Some Max_wall
      | _ -> None)
