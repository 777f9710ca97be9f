(* Replays a fixed event script through the pure scheduler core and prints
   every action it returns, one line each, under the event that caused it.
   A runtest rule diffs the output against [sched_replay.expected], so any
   change to what [Sched.step] decides or publishes shows up as a diff of
   that file.

   The script covers a duplicate initial submit and a duplicate gate
   submit, admission, a priority preempt and its report, a spool submit,
   a tick with a stalled heartbeat (quarantine and requeue), a crash
   report, a stale report from the quarantined slice, gate status requests
   (server-wide and for a running job whose probe shows progress), the
   SIGUSR1 status dump, a drain, and a submit refused while draining.

   Run: dune exec test/sched_replay.exe *)

module Sched = Dg_serve.Sched
module Intake = Dg_serve.Intake
module Job = Dg_serve.Job
module Json = Dg_obs.Obs.Json

let cfg =
  { Sched.total = 2; slice_wall = 1.0; slice_deadline = 5.0; admit_watermark = 8 }

let job id priority =
  Job.make ~id ~scenario:"advect" ~priority ~cells_x:4 ~cells_v:4 ~poly_order:1
    ~tend:1.0 ()

let probe id slice steps ~time ~heartbeat : Sched.probe =
  { id; slice; steps; time; heartbeat }

let request ~now ~probes req = Sched.Request { now; probes; req }

let report id slice ending steps : Sched.event =
  Sched.Report
    { id; slice; ending; steps; time = 0.1 *. float_of_int steps; wall = 0.5;
      dof = 10.0 *. float_of_int steps }

let reply_to_string = function
  | Intake.Accepted { dup } -> Printf.sprintf "accepted dup=%b" dup
  | Intake.Overloaded { queue_depth; watermark } ->
      Printf.sprintf "overloaded depth=%d watermark=%d" queue_depth watermark
  | Intake.Rejected why -> "rejected " ^ why
  | Intake.Draining -> "draining"
  | Intake.Status_of j -> "status " ^ Json.to_string j
  | Intake.Unknown_id id -> "unknown " ^ id

let action_to_string = function
  | Sched.Emit (kind, fields) ->
      Printf.sprintf "emit %s %s" kind (Json.to_string (Json.Obj fields))
  | Sched.Count (name, n) -> Printf.sprintf "count %s %d" name n
  | Sched.Launch (j, r) ->
      Printf.sprintf "launch %s slice=%d start_steps=%d started_at=%g"
        j.Sched.job.Job.id r.Sched.slice r.Sched.start_steps r.Sched.started_at
  | Sched.Stop { id; slice; reason } ->
      Printf.sprintf "stop %s slice=%d reason=%s" id slice reason
  | Sched.Reply r -> "reply " ^ reply_to_string r
  | Sched.Accept_file path -> "accept_file " ^ path
  | Sched.Reject_file (path, why) -> Printf.sprintf "reject_file %s (%s)" path why

type entry = Ev of Sched.event | Dump of Sched.probe list

let script =
  [
    ("submit a", Ev (Sched.Submit (job "a" 0, Sched.Initial)));
    ("submit b", Ev (Sched.Submit (job "b" 0, Sched.Initial)));
    ("submit a again", Ev (Sched.Submit (job "a" 0, Sched.Initial)));
    ( "gate submit b again",
      Ev (request ~now:0.0 ~probes:[] (Intake.Submit (job "b" 0))) );
    ("admit", Ev (Sched.Admit { now = 0.0 }));
    ( "spool submit c (prio 1)",
      Ev (Sched.Submit (job "c" 1, Sched.Spool "spool/c.json")) );
    ( "tick: a has progress, c outranks it",
      Ev
        (Sched.Tick
           { now = 0.5;
             probes =
               [ probe "a" 1 3 ~time:0.3 ~heartbeat:0.5;
                 probe "b" 1 0 ~time:0.0 ~heartbeat:0.5 ] }) );
    ("report a preempted", Ev (report "a" 1 (Sched.Stopped "preempt") 3));
    ("admit", Ev (Sched.Admit { now = 0.5 }));
    ( "tick: b's heartbeat stalled",
      Ev
        (Sched.Tick
           { now = 7.0;
             probes =
               [ probe "c" 1 0 ~time:0.0 ~heartbeat:7.0;
                 probe "b" 1 2 ~time:0.2 ~heartbeat:0.5 ] }) );
    ("admit (no slot free)", Ev (Sched.Admit { now = 7.0 }));
    ("report c crashed", Ev (report "c" 1 (Sched.Crashed "boom") 4));
    ("admit", Ev (Sched.Admit { now = 7.5 }));
    ( "stale report from b's quarantined slice",
      Ev (report "b" 1 Sched.Completed 9) );
    ("gate status", Ev (request ~now:8.0 ~probes:[] (Intake.Status None)));
    ( "gate status of running c",
      Ev
        (request ~now:8.0
           ~probes:[ probe "c" 2 6 ~time:0.6 ~heartbeat:8.0 ]
           (Intake.Status (Some "c"))) );
    ("SIGUSR1 dump", Dump [ probe "c" 2 6 ~time:0.6 ~heartbeat:8.0 ]);
    ("drain", Ev (Sched.Drain "test"));
    ("report c drained", Ev (report "c" 2 (Sched.Stopped "drain") 7));
    ( "gate submit d while draining",
      Ev (request ~now:9.0 ~probes:[] (Intake.Submit (job "d" 0))) );
  ]

let () =
  ignore
    (List.fold_left
       (fun st (what, entry) ->
         print_endline ("> " ^ what);
         match entry with
         | Ev ev ->
             let st, acts = Sched.step st ev in
             List.iter (fun a -> print_endline ("  " ^ action_to_string a)) acts;
             st
         | Dump probes ->
             print_endline ("  " ^ Sched.status_dump st ~now:8.0 ~probes);
             st)
       (Sched.create cfg ~now:0.0) script)
