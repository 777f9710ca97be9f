(* The scheduler core of the job engine: a pure state machine.  [step]
   folds one event into an immutable state and returns the actions the
   shell must perform, in order.  Nothing here touches a clock, a domain,
   a lock or a file, so the engine's scheduling is replayable from its
   event list alone. *)

module Json = Dg_obs.Obs.Json
module SMap = Map.Make (String)

type outcome = Done | Failed of string | Drained

let outcome_to_string = function
  | Done -> "done"
  | Failed _ -> "failed"
  | Drained -> "drained"

type config = {
  total : int; slice_wall : float; slice_deadline : float; admit_watermark : int;
}

type slice = { slice : int; started_at : float; start_steps : int }
type phase = Queued | Running of slice | Ended of outcome

type job = {
  job : Job.t; phase : phase; steps : int; sim_time : float; consumed : float;
  slices : int; preempts : int; crashes : int; hangs : int;
  dof : float; cancel_req : bool;
}

type ending = Completed | Stopped of string | Crashed of string

type report = {
  id : string; slice : int; ending : ending; steps : int; time : float;
  wall : float; dof : float;
}

type probe = {
  id : string; slice : int; steps : int; time : float; heartbeat : float;
  started : float;
}
type origin = Initial | Spool of string

type event =
  | Submit of Job.t * origin
  | Invalid of { path : string; id : string; why : string }
  | Request of { now : float; probes : probe list; req : Intake.request }
  | Tick of { now : float; probes : probe list }
  | Report of report
  | Admit of { now : float }
  | Drain of string

type action =
  | Emit of string * (string * Json.t) list
  | Count of string * int
  | Launch of job * slice
  | Stop of { id : string; slice : int; reason : string }
  | Reply of Intake.reply
  | Accept_file of string
  | Reject_file of string * string

type t = {
  cfg : config;
  started : float;
  table : job SMap.t;
  order : string list;  (* submission order, reversed *)
  ready : string Jobq.t;
  live : string list;  (* running job ids, most recently launched first *)
  quarantined : (string * int) list;  (* (id, slice) parked for good *)
  total : int;  (* slots left; each running slice holds one *)
  next_seq : int;
  draining : string option;
  rejects : int;
  hangs_detected : int;
}

let create cfg ~now =
  { cfg; started = now; table = SMap.empty; order = []; ready = Jobq.empty;
    live = []; quarantined = []; total = cfg.total;
    next_seq = 0; draining = None; rejects = 0; hangs_detected = 0 }

(* --- views ------------------------------------------------------------------ *)

let get st id = SMap.find id st.table
let find st id = SMap.find_opt id st.table
let jobs st = List.rev_map (get st) st.order
let queued st = List.map (get st) (Jobq.to_list st.ready)
let running st = List.map (get st) st.live
let total st = st.total
let draining st = st.draining
let rejects st = st.rejects
let hangs_detected st = st.hangs_detected

let finished st ~exit_on_idle =
  st.live = []
  && (st.draining <> None || (exit_on_idle && Jobq.is_empty st.ready))

type tally = { done_ : int; failed : int; drained : int; steps : int }

let fold_tally view st =
  SMap.fold
    (fun _ j t ->
      let j : job = view j in
      let t = { t with steps = t.steps + j.steps } in
      match j.phase with
      | Ended Done -> { t with done_ = t.done_ + 1 }
      | Ended (Failed _) -> { t with failed = t.failed + 1 }
      | Ended Drained -> { t with drained = t.drained + 1 }
      | Queued | Running _ -> t)
    st.table
    { done_ = 0; failed = 0; drained = 0; steps = 0 }

let tally st = fold_tally Fun.id st

let job_fields (j : job) =
  [
    ("id", Json.Str j.job.Job.id);
    ("prio", Json.Int j.job.Job.priority);
    ("step", Json.Int j.steps);
    ("t", Json.Float j.sim_time);
    ("slices", Json.Int j.slices);
    ("preempts", Json.Int j.preempts);
    ("crashes", Json.Int j.crashes);
    ("hangs", Json.Int j.hangs);
    ("wall_s", Json.Float j.consumed);
  ]

let probe_of probes id (r : slice) =
  List.find_opt (fun (p : probe) -> p.id = id && p.slice = r.slice) probes

(* --- status: the one rendering of the gate's replies, the periodic
   ["server"] record and the SIGUSR1 dump ------------------------------------ *)

(* a running job as its slice's probe sees it at [now], not as its last
   slice ended: the probe's step and time, and the slice's wall so far *)
let live ~now probes (j : job) =
  match j.phase with
  | Running r -> (
      match probe_of probes j.job.Job.id r with
      | Some p ->
          { j with steps = p.steps; sim_time = p.time;
                   consumed = j.consumed +. (now -. p.started) }
      | None -> j)
  | Queued | Ended _ -> j

let job_status ~now probes (j : job) =
  let j = live ~now probes j in
  (("state",
    Json.Str
      (match j.phase with
      | Queued -> "queued"
      | Running _ -> "running"
      | Ended o -> outcome_to_string o))
  :: job_fields j)
  @ match j.phase with
    | Ended (Failed why) -> [ ("error", Json.Str why) ]
    | _ -> []

let server_status st ~now ~probes =
  let t = fold_tally (live ~now probes) st in
  [
    ("queue_depth", Json.Int (Jobq.length st.ready));
    ("inflight_jobs", Json.Int (List.length st.live));
    ("admit_watermark", Json.Int st.cfg.admit_watermark);
    ("done", Json.Int t.done_);
    ("failed", Json.Int t.failed);
    ("drained", Json.Int t.drained);
    ("steps", Json.Int t.steps);
    ("draining", match st.draining with Some w -> Json.Str w | None -> Json.Null);
    ("elapsed_s", Json.Float (now -. st.started));
    ("rejects", Json.Int st.rejects);
    ("slots_quarantined", Json.Int (st.cfg.total - st.total));
    ("hangs_detected", Json.Int st.hangs_detected);
    ("stuck", Json.Int (List.length st.quarantined));
  ]

let status_dump st ~now ~probes =
  let line fields =
    String.concat " "
      (List.map
         (fun (k, v) ->
           k ^ "="
           ^
           match v with
           | Json.Str s -> s
           | Json.Float f -> Printf.sprintf "%g" f
           | v -> Json.to_string v)
         fields)
  in
  String.concat "\n  "
    (("serve: " ^ line (server_status st ~now ~probes))
    :: List.map (fun j -> line (job_status ~now probes j))
         (running st @ queued st))

(* --- transitions ------------------------------------------------------------ *)

(* Every transition takes [act], which records one action; [step] returns
   them in the order they were recorded. *)

let put st (j : job) = { st with table = SMap.add j.job.Job.id j st.table }
let unlive st id = { st with live = List.filter (fun i -> i <> id) st.live }

(* status records: [job_event] for admission and slice life, [job_record]
   (the job's counters first) for how a slice ended *)
let job_event act id event extra =
  act (Emit ("job", ("id", Json.Str id) :: ("event", Json.Str event) :: extra))

let job_record act j event extra =
  act (Emit ("job", job_fields j @ (("event", Json.Str event) :: extra)))

let cancelled = Failed "cancelled by client"
let drain_reason = "drain"

let finish act st (j : job) outcome =
  let j = { j with phase = Ended outcome } in
  job_record act j (outcome_to_string outcome)
    (match outcome with Failed why -> [ ("error", Json.Str why) ] | _ -> []);
  put st j

(* a fresh sequence number sends a requeued job behind its equals *)
let enqueue st (j : job) =
  let seq = st.next_seq + 1 in
  put
    { st with next_seq = seq;
      ready = Jobq.push st.ready ~priority:j.job.Job.priority ~seq j.job.Job.id }
    { j with phase = Queued }

let park_queued act st =
  List.fold_left
    (fun st id -> finish act st (get st id) Drained)
    { st with ready = Jobq.empty }
    (Jobq.to_list st.ready)

let reject act st ~id why =
  act (Count ("serve.admission_rejects", 1));
  job_event act id "rejected" [ ("error", Json.Str why) ];
  { st with rejects = st.rejects + 1 }

(* Admission of a job the caller has not deduplicated: [None] if its id is
   already known (queued, running or finished).  A job admitted during a
   drain is parked at once, like everything else still queued. *)
let admit_new act st (job : Job.t) =
  let id = job.Job.id in
  if SMap.mem id st.table then None
  else
    let j : job =
      { job; phase = Queued; steps = 0; sim_time = 0.0; consumed = 0.0;
        slices = 0; preempts = 0; crashes = 0; hangs = 0; dof = 0.0;
        cancel_req = false }
    in
    let st = enqueue { st with order = id :: st.order } j in
    job_event act id "queued" [ ("job", Job.to_json job) ];
    Some (if st.draining <> None then park_queued act st else st)

let submit act st job origin =
  match (admit_new act st job, origin) with
  | Some st, Initial -> st
  | Some st, Spool path ->
      act (Accept_file path);
      st
  | None, _ ->
      let st = reject act st ~id:job.Job.id "duplicate id" in
      (match origin with
      | Spool path -> act (Reject_file (path, "duplicate id"))
      | Initial -> ());
      st

(* Launch queued jobs while a slot is free: each running slice holds one. *)
let rec admit act st ~now =
  match (st.draining, Jobq.pop st.ready) with
  | None, Some (id, rest) when List.length st.live < st.total ->
      let j = get st id in
      let slice = j.slices + 1 in
      let r = { slice; started_at = now; start_steps = j.steps } in
      act (Launch (j, r));
      job_event act id
        (if j.slices > 0 then "restarted" else "started")
        [ ("slice", Json.Int slice) ];
      let st = { st with ready = rest; live = id :: st.live } in
      admit act (put st { j with slices = slice; phase = Running r }) ~now
  | _ -> st

(* The requeue-or-finish ladder, for every way a slice can end.  A
   completed run is done whatever raced it; otherwise a client cancel wins
   over every other stop reason, and a per-job wall cap over a drain. *)
type cause = Ended_by of ending | Hung

let max_wall_failure = "per-job max_wall exhausted"

let settle act st (j : job) cause =
  match cause with
  | Ended_by Completed -> finish act st j Done
  | _ when j.cancel_req -> finish act st j cancelled
  | Ended_by (Stopped "max-wall") ->
      finish act st j (Failed max_wall_failure)
  | _ when st.draining <> None -> finish act st j Drained
  | Ended_by (Stopped "preempt") ->
      let j = { j with preempts = j.preempts + 1 } in
      job_record act j "preempted" [];
      enqueue st j
  | Ended_by (Stopped _) ->
      (* a stop the scheduler did not ask for *)
      finish act st j Drained
  | Ended_by (Crashed why) when j.crashes <= j.job.Job.crash_retries ->
      job_record act j "crash_retry" [ ("error", Json.Str why) ];
      enqueue st j
  | Ended_by (Crashed why) -> finish act st j (Failed why)
  | Hung when st.total < 1 ->
      finish act st j (Failed "hung slice: all worker slots quarantined")
  | Hung when j.hangs <= j.job.Job.hang_retries -> enqueue st j
  | Hung ->
      finish act st j
        (Failed
           (Printf.sprintf
              "hung slice (heartbeat stalled > %gs), hang_retries (%d) \
               exhausted"
              st.cfg.slice_deadline j.job.Job.hang_retries))

(* The hung-slice watchdog's verdict.  A domain cannot be killed, so the
   slice gets a stop request (harmless if it ever wakes), its slot is
   forfeited for good — a slot backed by a stuck OS thread must never be
   reused — and the job goes through the ladder from its last checkpoint. *)
let quarantine act st (j : job) (r : slice) =
  let id = j.job.Job.id in
  act (Stop { id; slice = r.slice; reason = "watchdog" });
  let st =
    { (unlive st id) with total = st.total - 1;
      quarantined = (id, r.slice) :: st.quarantined;
      hangs_detected = st.hangs_detected + 1 }
  in
  let j = { j with hangs = j.hangs + 1 } in
  act (Count ("watchdog.hangs_detected", 1));
  act (Count ("watchdog.slots_quarantined", 1));
  job_record act j "hung" [ ("slice", Json.Int r.slice) ];
  settle act st j Hung

(* Preemption: a running slice yields (checkpoint, requeue) once it has
   run past [slice_wall] while others wait, or as soon as a strictly
   higher-priority job is queued.  Never before it has accepted a step:
   a [slice_wall] shorter than slice set-up would otherwise requeue jobs
   with zero progress forever.  Then the watchdog, which also runs while
   draining (a hung slice would block the drain forever), and the
   livelock guard: with every slot quarantined nothing queued can run. *)
let tick act st ~now ~probes =
  (match (st.draining, Jobq.peek_priority st.ready) with
  | None, Some top ->
      List.iter
        (fun id ->
          let j = get st id in
          match j.phase with
          | Running r -> (
              match probe_of probes id r with
              | Some p
                when p.steps > r.start_steps
                     && (j.job.Job.priority < top
                        || now -. r.started_at > st.cfg.slice_wall) ->
                  act (Stop { id; slice = r.slice; reason = "preempt" })
              | _ -> ())
          | _ -> ())
        st.live
  | _ -> ());
  let st =
    List.fold_left
      (fun st id ->
        let j = get st id in
        match j.phase with
        | Running r -> (
            match probe_of probes id r with
            | Some p when now -. p.heartbeat > st.cfg.slice_deadline ->
                quarantine act st j r
            | _ -> st)
        | _ -> st)
      st st.live
  in
  if st.total >= 1 then st
  else
    List.fold_left
      (fun st id -> finish act st (get st id) (Failed "no worker slots remain"))
      { st with ready = Jobq.empty }
      (Jobq.to_list st.ready)

(* A report is fresh only from the job's current slice; anything else
   comes from a quarantined slice that woke up.  Its slots were forfeited
   and the job has moved on from its last checkpoint, so it only leaves
   the quarantine list. *)
let report act st (rep : report) =
  match find st rep.id with
  | Some ({ phase = Running r; _ } as j) when r.slice = rep.slice ->
      let st = unlive st rep.id in
      let j =
        { j with steps = rep.steps; sim_time = rep.time;
          consumed = j.consumed +. Float.max 0.0 rep.wall;
          dof = j.dof +. rep.dof;
          crashes =
            (match rep.ending with Crashed _ -> j.crashes + 1 | _ -> j.crashes) }
      in
      settle act st j (Ended_by rep.ending)
  | _ ->
      job_event act rep.id "stale_report" [ ("slice", Json.Int rep.slice) ];
      { st with
        quarantined =
          List.filter (fun q -> q <> (rep.id, rep.slice)) st.quarantined }

(* Stop admitting, park everything queued, and ask every running slice to
   checkpoint; they end through the normal report path.  The stop reason
   is [drain_reason], never the server's own [why]: a server stopping on
   its --max-wall budget must not read as a job's own "max-wall". *)
let drain act st why =
  if st.draining <> None then st
  else begin
    let st = { st with draining = Some why } in
    act (Emit ("server", [ ("event", Json.Str "draining"); ("why", Json.Str why) ]));
    let st = park_queued act st in
    List.iter
      (fun id ->
        match (get st id).phase with
        | Running r -> act (Stop { id; slice = r.slice; reason = drain_reason })
        | _ -> ())
      st.live;
    st
  end

(* The gate: dedup by id (a retry after a lost ACK gets [dup = true],
   never a second run), the overload watermark on the same ready-queue
   depth published as [serve.queue_depth], and drain state. *)
let request act st ~now ~probes (req : Intake.request) =
  let reply r = act (Reply r) in
  match req with
  | Intake.Submit _ when st.draining <> None ->
      reply Intake.Draining;
      st
  | Intake.Submit job when SMap.mem job.Job.id st.table ->
      act (Count ("serve.dup_submits", 1));
      job_event act job.Job.id "dup_submit" [];
      reply (Intake.Accepted { dup = true });
      st
  | Intake.Submit job when Jobq.length st.ready >= st.cfg.admit_watermark ->
      let depth = Jobq.length st.ready in
      act (Count ("serve.overload_rejects", 1));
      job_event act job.Job.id "overloaded" [ ("queue_depth", Json.Int depth) ];
      reply
        (Intake.Overloaded
           { queue_depth = depth; watermark = st.cfg.admit_watermark });
      st
  | Intake.Submit job ->
      let st = Option.get (admit_new act st job) in
      reply (Intake.Accepted { dup = false });
      st
  | Intake.Status None ->
      reply (Intake.Status_of (Json.Obj (server_status st ~now ~probes)));
      st
  | Intake.Status (Some id) ->
      reply
        (match find st id with
        | Some j -> Intake.Status_of (Json.Obj (job_status ~now probes j))
        | None -> Intake.Unknown_id id);
      st
  | Intake.Cancel id -> (
      match find st id with
      | None ->
          reply (Intake.Unknown_id id);
          st
      | Some ({ phase = Queued; _ } as j) ->
          (* a queued job is always in the ready queue *)
          let ready =
            Option.fold ~none:st.ready ~some:snd
              (Jobq.remove st.ready (fun i -> i = id))
          in
          act (Count ("serve.cancels", 1));
          let st = finish act { st with ready } j cancelled in
          reply (Intake.Accepted { dup = false });
          st
      | Some ({ phase = Running r; _ } as j) ->
          act (Count ("serve.cancels", 1));
          act (Stop { id; slice = r.slice; reason = "cancel" });
          reply (Intake.Accepted { dup = false });
          put st { j with cancel_req = true }
      | Some { phase = Ended o; _ } ->
          reply (Intake.Rejected ("already " ^ outcome_to_string o));
          st)
  | Intake.Drain why ->
      let st = drain act st ("gate: " ^ why) in
      reply (Intake.Accepted { dup = false });
      st

let step st ev =
  let acts = ref [] in
  let act a = acts := a :: !acts in
  let st =
    match ev with
    | Submit (job, origin) -> submit act st job origin
    | Invalid { path; id; why } ->
        let st = reject act st ~id why in
        act (Reject_file (path, why));
        st
    | Request { now; probes; req } -> request act st ~now ~probes req
    | Tick { now; probes } -> tick act st ~now ~probes
    | Report rep -> report act st rep
    | Admit { now } -> admit act st ~now
    | Drain why -> drain act st why
  in
  (st, List.rev !acts)
