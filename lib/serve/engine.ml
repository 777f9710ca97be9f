(* The job engine: runs a queue of [Job.t] simulations concurrently on a
   fixed number of slots, one per running slice, with checkpoint-based
   preemption.

   Core and shell.  Every scheduling decision — admission, launch,
   preemption, the requeue-or-finish ladder, the watchdog, drain — is made
   by [Sched], a pure state machine.  This module is its IO shell: it feeds
   [Sched.step] events (job files, gate requests, slice reports, and a tick
   carrying the clock and each running slice's progress and heartbeat) and
   performs the actions that come back — spawning and stopping slice
   domains, writing the status stream, bumping counters, answering the
   gate, renaming spool files.  Status, whether for the gate, the
   periodic ["server"] record or SIGUSR1, is rendered by [Sched] too.

   Each running job runs one SLICE at a time in its own domain.  A slice is
   an ordinary [Job.run] call under a per-slice [Supervisor]
   the shell can stop from outside: preemption is [Supervisor.request_stop
   slice_sup "preempt"], which makes the slice checkpoint at the next step
   boundary and return — the SIGTERM machinery of [Supervisor], reused as
   a scheduler primitive.  Resuming is [Vm_app.create_resumable]
   on the job's checkpoint directory, which is bit-exact.

   Slices report back through a mutex-protected mailbox (OCaml domains have
   no non-blocking join, so the shell polls the mailbox and joins a domain
   once its report has arrived).  A crashed slice's exception is caught
   inside its domain and reported; the server survives.

   Wall accounting.  Each slice supervisor gets
   [~elapsed_offset:consumed ~max_wall:job.max_wall], where [consumed] is
   the supervised wall time of the job's earlier slices — a resumed job is
   charged for the time it ran but not for the time it sat parked. *)

module App = Dg_app.Vm_app
module Obs = Dg_obs.Obs
module Json = Obs.Json
module Checkpoint = Dg_resilience.Checkpoint
module Retry = Dg_resilience.Retry
module Supervisor = Dg_resilience.Supervisor
module Solver = Dg_vlasov.Solver

type config = {
  concurrency : int;
  slice_wall : float;
  slice_deadline : float;
  poll_interval : float;
  status_path : string option;
  status_append : bool;
  status_every : float;
  progress_every : int;
  root : string;
  spool : string option;
  exit_on_idle : bool;
  intake : Intake.t option;
  admit_watermark : int;
}

let default_config ~root =
  {
    concurrency = 2;
    slice_wall = 5.0;
    slice_deadline = 60.0;
    poll_interval = 0.02;
    status_path = None;
    status_append = false;
    status_every = 5.0;
    progress_every = 50;
    root;
    spool = None;
    exit_on_idle = true;
    intake = None;
    admit_watermark = 64;
  }

type outcome = Sched.outcome = Done | Failed of string | Drained

let outcome_to_string = Sched.outcome_to_string

type record = {
  job : Job.t;
  outcome : outcome;
  steps : int;
  sim_time : float;
  wall_s : float;
  slices : int;
  preempts : int;
  crash_retries_used : int;
  hangs : int;
  dof : float;
  checkpoint_dir : string;
}

type summary = {
  records : record list;
  wall_s : float;
  jobs_done : int;
  jobs_failed : int;
  jobs_drained : int;
  total_steps : int;
  total_preempts : int;
  total_slices : int;
  agg_dof : float;
  agg_dof_s : float;
  jobs_per_hour : float;
  cache_hits : int;
  cache_misses : int;
  watchdog_hangs : int;
  slots_quarantined : int;
  admission_rejects : int;
  stopped : string option;
}

(* the shell's half of a slice: what it needs to stop, probe and join it *)
type slice = {
  sup : Supervisor.t;
  dom : unit Domain.t;
  progress : (int * float) Atomic.t;  (* (steps, sim time), every step *)
  heartbeat : float Atomic.t;  (* last sign of life ([Obs.now] clock) *)
}

let run ?(jobs = []) ?supervisor cfg =
  if cfg.concurrency < 1 then invalid_arg "Engine.run: concurrency must be >= 1";
  if cfg.slice_wall <= 0.0 then invalid_arg "Engine.run: slice_wall must be > 0";
  if cfg.slice_deadline <= 0.0 then
    invalid_arg "Engine.run: slice_deadline must be > 0";
  if cfg.progress_every < 1 then
    invalid_arg "Engine.run: progress_every must be >= 1";
  if cfg.admit_watermark < 1 then
    invalid_arg "Engine.run: admit_watermark must be >= 1";
  let cache0_h, cache0_m = Solver.kernel_cache_stats () in
  let sup = match supervisor with Some s -> s | None -> Supervisor.create () in
  let sink =
    Option.map
      (fun path ->
        Obs.Sink.create ~append:cfg.status_append
          ~manifest:
            [
              ("server", Json.Str "dg_serve");
              ("concurrency", Json.Int cfg.concurrency);
              ("slice_wall", Json.Float cfg.slice_wall);
              ("root", Json.Str cfg.root);
            ]
          path)
      cfg.status_path
  in
  let emit kind fields =
    Option.iter (fun s -> Obs.Sink.event s ~kind fields) sink
  in
  let started = Unix.gettimeofday () in
  let st =
    ref
      (Sched.create
         {
           Sched.total = cfg.concurrency;
           slice_wall = cfg.slice_wall;
           slice_deadline = cfg.slice_deadline;
           admit_watermark = cfg.admit_watermark;
         }
         ~now:started)
  in
  (* every slice domain not yet joined — running, or quarantined and maybe
     never coming back — by (job id, slice number) *)
  let slices : (string * int, slice) Hashtbl.t = Hashtbl.create 16 in
  let mailbox_m = Mutex.create () in
  let mailbox : Sched.report list ref = ref [] in
  let ckpt_dir id = Checkpoint.job_dir ~root:cfg.root ~job:id in

  (* spool files are renamed once consumed, so a long-running server never
     re-reads them; a rejected file stays around, marked, with the reason
     in a sibling [.rejected.why] for the operator *)
  let mark_rejected ~path why =
    (try Sys.rename path (path ^ ".rejected") with Sys_error _ -> ());
    try
      Out_channel.with_open_bin (path ^ ".rejected.why") (fun oc ->
          Out_channel.output_string oc (why ^ "\n"))
    with Sys_error _ -> ()
  in

  (* launch one slice in its own domain; it ends by posting one report *)
  let launch (l : Sched.job) (r : Sched.slice) =
    let job = l.job in
    let id = job.Job.id and dir = ckpt_dir job.Job.id in
    let slice_sup =
      Supervisor.create ?max_wall:job.Job.max_wall ~elapsed_offset:l.consumed ()
    in
    let progress = Atomic.make (l.steps, l.sim_time) in
    (* primed to "alive now" so the deadline clock starts at launch:
       app construction counts against the deadline *)
    let heartbeat = Atomic.make (Obs.now ()) in
    let body () =
      let report ending ~steps ~time ~dof : Sched.report =
        { id; slice = r.slice; ending; steps; time; dof;
          wall = Supervisor.elapsed slice_sup -. l.consumed }
      in
      let rep =
        match
          let app, resumed =
            App.create_resumable (Job.spec job) ~checkpoint_dir:dir
          in
          (* construction/restore finished: attest liveness, then let the
             stepper bump the heartbeat after every RHS stage *)
          Atomic.set heartbeat (Obs.now ());
          App.set_heartbeat app (Some heartbeat);
          Option.iter
            (fun (info : Checkpoint.info) ->
              emit "job"
                [ ("id", Json.Str id); ("event", Json.Str "resumed");
                  ("slice", Json.Int r.slice);
                  ("from_step", Json.Int info.Checkpoint.step);
                  ("from_t", Json.Float info.Checkpoint.time) ])
            resumed;
          app
        with
        | exception exn ->
            report (Sched.Crashed (Printexc.to_string exn)) ~steps:l.steps
              ~time:l.sim_time ~dof:0.0
        | app ->
            (* the steps of a run this slice resumed from are not its work *)
            let from = App.nsteps app in
            let faults =
              Job.faults job ~slice:r.slice ~crashes:l.crashes ~hangs:l.hangs
                ~steps_done:from
            in
            let on_step app =
              let n = App.nsteps app and t = App.time app in
              (* every step: the scheduler's probes read this (the
                 preemption guard, status replies, the SIGUSR1 dump) *)
              Atomic.set progress (n, t);
              if n mod cfg.progress_every = 0 then
                emit "progress"
                  [ ("id", Json.Str id); ("step", Json.Int n);
                    ("t", Json.Float t);
                    ("energy", Json.Float (App.total_energy app)) ]
            in
            let ending =
              match
                (Job.run ~faults ~supervisor:slice_sup ~on_step job app ~dir)
                  .Retry.stopped
              with
              | None -> Sched.Completed
              | Some why -> Sched.Stopped why
              | exception exn -> Sched.Crashed (Printexc.to_string exn)
            in
            report ending ~steps:(App.nsteps app) ~time:(App.time app)
              ~dof:(float_of_int (App.nsteps app - from) *. App.dof_per_step app)
      in
      Obs.drain_local ();
      Mutex.protect mailbox_m (fun () -> mailbox := rep :: !mailbox)
    in
    let dom = Domain.spawn body in
    Hashtbl.replace slices (id, r.slice)
      { sup = slice_sup; dom; progress; heartbeat }
  in

  let perform ~reply = function
    | Sched.Emit (kind, fields) -> emit kind fields
    | Sched.Count (name, n) -> Obs.count name n
    | Sched.Launch (j, r) -> launch j r
    | Sched.Stop { id; slice; reason } ->
        Option.iter
          (fun s -> Supervisor.request_stop s.sup reason)
          (Hashtbl.find_opt slices (id, slice))
    | Sched.Reply r -> reply r
    | Sched.Accept_file path -> (
        try Sys.rename path (path ^ ".accepted") with Sys_error _ -> ())
    | Sched.Reject_file (path, why) -> mark_rejected ~path why
  in
  let step ?(reply = ignore) ev =
    let s, actions = Sched.step !st ev in
    st := s;
    List.iter (perform ~reply) actions
  in

  (* drain the mailbox: join each reporting domain, then let the core
     classify its ending (or discard it as stale) *)
  let apply_reports () =
    Mutex.protect mailbox_m (fun () ->
        let r = List.rev !mailbox in
        mailbox := [];
        r)
    |> List.iter (fun (rep : Sched.report) ->
           Option.iter
             (fun s ->
               Domain.join s.dom;
               Hashtbl.remove slices (rep.id, rep.slice))
             (Hashtbl.find_opt slices (rep.id, rep.slice));
           step (Sched.Report rep))
  in
  let probes () =
    List.filter_map
      (fun (j : Sched.job) ->
        match j.phase with
        | Sched.Running r ->
            let id = j.job.Job.id in
            Option.map
              (fun s : Sched.probe ->
                let steps, time = Atomic.get s.progress in
                { id; slice = r.slice; steps; time;
                  heartbeat = Atomic.get s.heartbeat;
                  started = Supervisor.started s.sup })
              (Hashtbl.find_opt slices (id, r.slice))
        | _ -> None)
      (Sched.running !st)
  in

  (* spool: read failures and parse failures part ways here.  A file that
     cannot be READ (partial write still landing, renamed away between
     readdir and open, unreadable) is left in place and retried on the next
     scan — rejecting it would lose a job to a timing accident.  Only a
     file whose BYTES are definitively bad is rejected.  Returns "saw any
     .json file": activity resets the idle backoff. *)
  let read_pending : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let scan_spool dir =
    let files = Sys.readdir dir in
    Array.sort compare files;
    Array.fold_left
      (fun activity f ->
        if not (Filename.check_suffix f ".json") then activity
        else begin
          let path = Filename.concat dir f in
          let id = Filename.remove_extension f in
          (match Job.of_file_result path with
          | Ok job ->
              Hashtbl.remove read_pending path;
              step (Sched.Submit (job, Sched.Spool path))
          | Error (`Read why) ->
              (* transient: leave the file for the next scan; warn once *)
              if not (Hashtbl.mem read_pending path) then begin
                Hashtbl.replace read_pending path ();
                emit "job"
                  [ ("id", Json.Str id); ("event", Json.Str "read_retry");
                    ("error", Json.Str why) ]
              end
          | Error (`Invalid why) ->
              Hashtbl.remove read_pending path;
              step (Sched.Invalid { path; id; why }));
          true
        end)
      false files
  in
  (* An empty spool is rescanned at a jittered, exponentially growing
     interval (the gate client's [Backoff]); any sighted job file resets
     it to every tick.  Capped so a quiet server still notices a new job
     within ~50 poll intervals (at most 1 s). *)
  let spool_backoff =
    Backoff.make ~seed:(Hashtbl.hash cfg.root)
      (Backoff.policy ~base:cfg.poll_interval ~factor:2.0
         ~cap:
           (Float.max cfg.poll_interval
              (Float.min 1.0 (50.0 *. cfg.poll_interval)))
         ~jitter:0.3 ())
  in
  let next_spool = ref 0.0 in
  let scan_spool_throttled () =
    match cfg.spool with
    | None -> ()
    | Some dir ->
        let now = Unix.gettimeofday () in
        if now >= !next_spool then begin
          Obs.count "serve.spool_scans" 1;
          if Sys.file_exists dir && Sys.is_directory dir && scan_spool dir
          then begin
            Backoff.reset spool_backoff;
            next_spool := now
          end
          else next_spool := now +. Backoff.next spool_backoff
        end
  in
  let process_intake () =
    Option.iter
      (fun ik ->
        match Intake.take_all ik with
        | [] -> ()
        | reqs ->
            let probes = probes () in
            List.iter
              (fun (req, reply) ->
                step ~reply
                  (Sched.Request { now = Unix.gettimeofday (); probes; req }))
              reqs)
      cfg.intake
  in

  Supervisor.set_status sup (fun () ->
      Sched.status_dump !st ~now:(Unix.gettimeofday ()) ~probes:(probes ()));

  (* --- main loop --- *)
  List.iter (fun j -> step (Sched.Submit (j, Sched.Initial))) jobs;
  scan_spool_throttled ();
  process_intake ();
  step (Sched.Admit { now = Unix.gettimeofday () });
  let last_status = ref 0.0 in
  let finished () = Sched.finished !st ~exit_on_idle:cfg.exit_on_idle in
  while not (finished ()) do
    Option.iter
      (fun reason -> step (Sched.Drain (Supervisor.reason_to_string reason)))
      (Supervisor.should_stop sup);
    if Sched.draining !st = None then scan_spool_throttled ();
    step (Sched.Tick { now = Unix.gettimeofday (); probes = probes () });
    apply_reports ();
    process_intake ();
    step (Sched.Admit { now = Unix.gettimeofday () });
    Obs.gauge "serve.queue_depth"
      (float_of_int (List.length (Sched.queued !st)));
    Obs.gauge "serve.inflight_jobs"
      (float_of_int (List.length (Sched.running !st)));
    let now = Unix.gettimeofday () in
    if now -. !last_status > cfg.status_every then begin
      last_status := now;
      emit "server"
        (("event", Json.Str "tick")
        :: Sched.server_status !st ~now ~probes:(probes ()))
    end;
    if not (finished ()) then Unix.sleepf cfg.poll_interval
  done;

  (* late reports from quarantined slices that woke up during the last poll
     window: join their domains so the OS threads are reclaimed (slices
     still genuinely stuck stay parked — process exit is their reaper) *)
  apply_reports ();

  (* the scheduler is gone: anyone still posting gets an immediate
     [Draining] instead of a timeout *)
  Option.iter Intake.close cfg.intake;

  (* --- summary --- *)
  let s = !st in
  let wall_s = Unix.gettimeofday () -. started in
  let records =
    List.map
      (fun (j : Sched.job) ->
        { job = j.job;
          outcome = (match j.phase with Sched.Ended o -> o | _ -> Drained);
          steps = j.steps; sim_time = j.sim_time; wall_s = j.consumed;
          slices = j.slices; preempts = j.preempts;
          crash_retries_used = j.crashes; hangs = j.hangs;
          dof = j.dof;
          checkpoint_dir = ckpt_dir j.job.Job.id })
      (Sched.jobs s)
  in
  let cache1_h, cache1_m = Solver.kernel_cache_stats () in
  let t = Sched.tally s in
  let sum f = List.fold_left (fun a (r : record) -> a + f r) 0 records in
  let agg_dof = List.fold_left (fun a (r : record) -> a +. r.dof) 0.0 records in
  let per_s x = if wall_s > 0.0 then x /. wall_s else 0.0 in
  let summary =
    { records; wall_s; jobs_done = t.done_; jobs_failed = t.failed;
      jobs_drained = t.drained; total_steps = t.steps;
      total_preempts = sum (fun r -> r.preempts);
      total_slices = sum (fun r -> r.slices);
      agg_dof; agg_dof_s = per_s agg_dof;
      jobs_per_hour = per_s (float_of_int t.done_ *. 3600.0);
      cache_hits = cache1_h - cache0_h; cache_misses = cache1_m - cache0_m;
      watchdog_hangs = Sched.hangs_detected s;
      slots_quarantined = cfg.concurrency - Sched.total s;
      admission_rejects = Sched.rejects s; stopped = Sched.draining s }
  in
  emit "summary"
    [ ("jobs_done", Json.Int summary.jobs_done);
      ("jobs_failed", Json.Int summary.jobs_failed);
      ("jobs_drained", Json.Int summary.jobs_drained);
      ("rejected", Json.Int summary.admission_rejects);
      ("wall_s", Json.Float summary.wall_s);
      ("total_steps", Json.Int summary.total_steps);
      ("preempts", Json.Int summary.total_preempts);
      ("slices", Json.Int summary.total_slices);
      ("agg_dof_s", Json.Float summary.agg_dof_s);
      ("jobs_per_hour", Json.Float summary.jobs_per_hour);
      ("kernel_cache_hits", Json.Int summary.cache_hits);
      ("kernel_cache_misses", Json.Int summary.cache_misses);
      ("watchdog_hangs", Json.Int summary.watchdog_hangs);
      ("slots_quarantined", Json.Int summary.slots_quarantined);
      ("admission_rejects", Json.Int summary.admission_rejects);
      ("stopped",
       match summary.stopped with Some s -> Json.Str s | None -> Json.Null) ];
  Option.iter Obs.Sink.close sink;
  summary

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>jobs: %d done, %d failed, %d drained in %.2fs (%.1f jobs/hour)@,\
     steps: %d across %d slices (%d preempts); aggregate %.3g DOF/s@,\
     kernel cache: %d hits, %d misses%a%a%a@]"
    s.jobs_done s.jobs_failed s.jobs_drained s.wall_s s.jobs_per_hour
    s.total_steps s.total_slices s.total_preempts s.agg_dof_s s.cache_hits
    s.cache_misses
    (fun ppf -> function
      | 0 -> ()
      | hangs ->
          Format.fprintf ppf "@,watchdog: %d hangs, %d slots quarantined"
            hangs s.slots_quarantined)
    s.watchdog_hangs
    (fun ppf -> function
      | 0 -> ()
      | n -> Format.fprintf ppf "@,admission: %d rejects" n)
    s.admission_rejects
    (fun ppf -> function
      | Some why -> Format.fprintf ppf "@,stopped: %s" why
      | None -> ())
    s.stopped
