(* dg_serve: the multi-tenant job engine.  Queue ordering and priorities;
   registry defaults for omitted job fields; the status stream's job
   records; preempt-then-resume bit-exactness (a sliced run's final checkpoint must
   be bit-identical to an uninterrupted one); fault containment (a crashing
   job must not take the server or its siblings down); wall-budget
   accounting across resume; SIGTERM and server max-wall drains to valid
   checkpoints; a resume refused across scenarios; DOF credited only for
   the steps a server ran. *)

module Job = Dg_serve.Job
module Jobq = Dg_serve.Jobq
module Engine = Dg_serve.Engine
module Checkpoint = Dg_resilience.Checkpoint
module Supervisor = Dg_resilience.Supervisor
module Field = Dg_grid.Field
module App = Dg_app.Vm_app

let tmpdir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let quiet_cfg ~root =
  { (Engine.default_config ~root) with Engine.poll_interval = 0.002 }

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let outcome_of (s : Engine.summary) id =
  let r =
    List.find (fun (r : Engine.record) -> r.Engine.job.Job.id = id)
      s.Engine.records
  in
  r

(* --- queue ordering -------------------------------------------------------- *)

let test_jobq_ordering () =
  let q = Jobq.empty in
  Alcotest.(check bool) "fresh queue empty" true (Jobq.is_empty q);
  let q =
    List.fold_left
      (fun q (priority, seq, v) -> Jobq.push q ~priority ~seq v)
      q
      [ (0, 1, "a"); (0, 2, "b"); (5, 3, "hi"); (0, 4, "c"); (5, 5, "hi2") ]
  in
  Alcotest.(check int) "length" 5 (Jobq.length q);
  Alcotest.(check (option int)) "head priority" (Some 5) (Jobq.peek_priority q);
  Alcotest.(check (list string))
    "priority desc, FIFO within a class"
    [ "hi"; "hi2"; "a"; "b"; "c" ]
    (Jobq.to_list q);
  (* a preempted job re-enters with a fresh seq: behind its equals *)
  let pop q =
    match Jobq.pop q with
    | Some (v, q) -> (v, q)
    | None -> Alcotest.fail "pop on an empty queue"
  in
  let v, q = pop q in
  Alcotest.(check string) "pop hi" "hi" v;
  let v, q = pop q in
  Alcotest.(check string) "pop hi2" "hi2" v;
  let v, q = pop q in
  Alcotest.(check string) "pop a" "a" v;
  let q = Jobq.push q ~priority:0 ~seq:6 "a" in
  Alcotest.(check (list string))
    "requeued job goes to the back" [ "b"; "c"; "a" ] (Jobq.to_list q);
  (match Jobq.remove q (fun v -> v = "c") with
  | Some (v, q) ->
      Alcotest.(check string) "remove finds c" "c" v;
      Alcotest.(check (list string)) "remove keeps order" [ "b"; "a" ]
        (Jobq.to_list q)
  | None -> Alcotest.fail "remove missed a queued entry");
  Alcotest.(check bool) "persistent: c still queued in the old value" true
    (List.mem "c" (Jobq.to_list q))

(* --- job parsing ----------------------------------------------------------- *)

let test_job_parsing () =
  let j =
    Job.of_string
      {|{"id":"t1","scenario":"twostream","priority":2,"cells":[12,16],
         "p":2,"tend":3.5,"max_wall":60.0,"fault_nan_step":40}|}
  in
  Alcotest.(check string) "id" "t1" j.Job.id;
  Alcotest.(check int) "priority" 2 j.Job.priority;
  Alcotest.(check int) "cells_x" 12 j.Job.cells_x;
  Alcotest.(check int) "p" 2 j.Job.poly_order;
  Alcotest.(check (float 0.0)) "tend" 3.5 j.Job.tend;
  Alcotest.(check (option (float 0.0))) "max_wall" (Some 60.0) j.Job.max_wall;
  Alcotest.(check (option int)) "fault" (Some 40) j.Job.fault_nan_step;
  (* defaults *)
  let d = Job.of_string {|{"id":"d","scenario":"landau"}|} in
  Alcotest.(check int) "default check_every" 10 d.Job.check_every;
  Alcotest.(check int) "default crash_retries" 1 d.Job.crash_retries;
  Alcotest.(check (option (float 0.0))) "default max_wall" None d.Job.max_wall;
  (* fallback id comes from the caller (spool scanner: file basename) *)
  let f = Job.of_string ~id:"from-file" {|{"scenario":"advect"}|} in
  Alcotest.(check string) "fallback id" "from-file" f.Job.id;
  Alcotest.check_raises "unknown scenario"
    (Invalid_argument
       (Printf.sprintf
          "job \"x\": unknown scenario \"warp\" (available: %s)"
          (String.concat ", " Dg_scenarios.Scenarios.names)))
    (fun () -> ignore (Job.of_string {|{"id":"x","scenario":"warp"}|}));
  Alcotest.check_raises "bad id"
    (Invalid_argument "job \"a b\": id contains ' ' (use [A-Za-z0-9_.-])")
    (fun () -> ignore (Job.of_string {|{"id":"a b","scenario":"landau"}|}));
  (* a running slice holds one slot: there is no per-job slot count *)
  Alcotest.(check bool) "workers is an unknown field" true
    (Job.of_string_result {|{"id":"w","scenario":"landau","workers":2}|}
    = Error "job: unknown field: workers");
  (* fault arming across slices: armed only before the bomb step *)
  let fj = Job.of_string {|{"id":"f","scenario":"landau","fault_nan_step":40}|} in
  Alcotest.(check bool) "armed on a fresh job" true
    (Dg_resilience.Faults.armed (Job.faults fj ~steps_done:0));
  Alcotest.(check bool) "armed when resuming below the bomb" true
    (Dg_resilience.Faults.armed (Job.faults fj ~steps_done:39));
  Alcotest.(check bool) "disarmed when resuming past the bomb" false
    (Dg_resilience.Faults.armed (Job.faults fj ~steps_done:40))

(* A job file that leaves out cells, p or tend runs at the scenario
   registry's resolution (the one its goldens were set at), never at a
   hard-coded grid: a 2X2V scenario at a 1X1V default grid spends minutes
   in set-up and is declared hung. *)
let test_job_registry_defaults () =
  List.iter
    (fun name ->
      let e = Dg_scenarios.Scenarios.find_exn name in
      let spec = e.Dg_scenarios.Scenarios.spec Dg_scenarios.Scenarios.default_knobs in
      let cells = spec.Dg_app.Vm_app.cells and cdim = spec.Dg_app.Vm_app.cdim in
      let j =
        Job.of_string (Printf.sprintf {|{"id":"r","scenario":%S}|} name)
      in
      Alcotest.(check int) (name ^ " cells_x") cells.(0) j.Job.cells_x;
      Alcotest.(check int) (name ^ " cells_v") cells.(cdim) j.Job.cells_v;
      Alcotest.(check int) (name ^ " p") spec.Dg_app.Vm_app.poly_order
        j.Job.poly_order;
      Alcotest.(check (float 0.0)) (name ^ " tend") e.Dg_scenarios.Scenarios.tend
        j.Job.tend)
    Dg_scenarios.Scenarios.names;
  (* explicit fields still win *)
  let w =
    Job.of_string {|{"id":"w","scenario":"weibel_2x2v","cells":[6,8],"p":2}|}
  in
  Alcotest.(check (list int)) "explicit cells and p" [ 6; 8; 2 ]
    [ w.Job.cells_x; w.Job.cells_v; w.Job.poly_order ]

(* --- wall accounting across resume ----------------------------------------- *)

(* The satellite fix: a resumed run must be charged the supervised seconds
   earlier segments consumed (elapsed_offset) but not the parked time, so
   a max_wall budget spans segments instead of restarting or over-charging. *)
let test_elapsed_offset () =
  let sup = Supervisor.create ~max_wall:10.0 ~elapsed_offset:9.96 () in
  Alcotest.(check bool) "offset pre-charged" true (Supervisor.elapsed sup > 9.9);
  Alcotest.(check bool)
    "budget not yet exhausted" true
    (Supervisor.should_stop sup = None);
  Unix.sleepf 0.06;
  (match Supervisor.should_stop sup with
  | Some Supervisor.Max_wall -> ()
  | _ -> Alcotest.fail "offset + slice time must exhaust the budget");
  Alcotest.check_raises "negative offset rejected"
    (Invalid_argument "Supervisor.create: elapsed_offset must be >= 0")
    (fun () -> ignore (Supervisor.create ~elapsed_offset:(-1.0) ()))

(* --- engine: batch completion and priorities -------------------------------- *)

let small_job ?priority ?fault ?(tend = 1.0) ?(crash_retries = 1) id =
  let max_retries, max_restores =
    match fault with Some _ -> (0, 0) | None -> (8, 1)
  in
  (* 16 x-cells: the registry landau is Vlasov-Poisson now, and the
     spectral solve needs a power-of-two configuration grid *)
  Job.make ~id ~scenario:"landau" ?priority ~cells_x:16 ~cells_v:16
    ~poly_order:1 ~tend ~checkpoint_every:5 ~check_every:5 ~max_retries
    ~max_restores ~crash_retries ?fault_nan_step:fault ()

let test_batch_completes () =
  let root = tmpdir "serve_batch" in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let jobs = List.init 4 (fun i -> small_job (Printf.sprintf "j%d" i)) in
  let s = Engine.run ~jobs { (quiet_cfg ~root) with Engine.concurrency = 2 } in
  Alcotest.(check int) "all done" 4 s.Engine.jobs_done;
  Alcotest.(check int) "none failed" 0 s.Engine.jobs_failed;
  Alcotest.(check (option string)) "idle exit" None s.Engine.stopped;
  (* same-basis jobs share one cached kernel build *)
  Alcotest.(check bool) "kernel cache reused" true (s.Engine.cache_hits >= 3);
  List.iter
    (fun (r : Engine.record) ->
      Alcotest.(check bool)
        (r.Engine.job.Job.id ^ " left a final checkpoint")
        true
        (Checkpoint.find_latest ~dir:r.Engine.checkpoint_dir <> None))
    s.Engine.records

(* --- status-stream schema ----------------------------------------------------- *)

(* The (kind, event, id) sequence of [job] records is what the chaos
   battery's first-start parser and the benchmark's stream readers rely
   on; a fixed batch at c=1 with no preemption pins it exactly. *)
let test_status_schema () =
  let root = tmpdir "serve_schema" in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let status = Filename.concat root "status.jsonl" in
  let jobs =
    [ small_job ~tend:0.2 "s0"; small_job ~tend:0.2 "s1";
      small_job ~priority:2 ~tend:0.2 "s2" ]
  in
  let s =
    Engine.run ~jobs
      { (quiet_cfg ~root) with
        Engine.concurrency = 1; slice_wall = 60.0; status_path = Some status }
  in
  Alcotest.(check int) "all done" 3 s.Engine.jobs_done;
  let module Json = Dg_obs.Obs.Json in
  let str k j = match Json.member k j with Some (Json.Str v) -> v | _ -> "?" in
  let lines =
    In_channel.with_open_bin status In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map Json.parse
  in
  let records =
    lines
    |> List.filter (fun j -> str "kind" j = "job")
    |> List.map (fun j -> Printf.sprintf "%s %s %s" (str "kind" j) (str "event" j) (str "id" j))
  in
  Alcotest.(check (list string)) "job records"
    [ "job queued s0"; "job queued s1"; "job queued s2";
      "job started s2"; "job done s2";
      "job started s0"; "job done s0";
      "job started s1"; "job done s1" ]
    records;
  (* the periodic server record is the gate's status reply, tagged, and
     is written once per status_every seconds, not once per poll *)
  let ticks =
    List.filter (fun j -> str "kind" j = "server" && str "event" j = "tick") lines
  in
  Alcotest.(check bool) "one server record per status_every" true
    (ticks <> []
    && float_of_int (List.length ticks - 1) *. (quiet_cfg ~root).Engine.status_every
       <= s.Engine.wall_s);
  List.iter
    (function
      | Json.Obj kvs ->
          Alcotest.(check (list string)) "server record keys"
            [ "kind"; "event"; "queue_depth"; "inflight_jobs"; "admit_watermark";
              "done"; "failed"; "drained"; "steps"; "draining"; "elapsed_s";
              "rejects"; "slots_quarantined"; "hangs_detected"; "stuck" ]
            (List.map fst kvs)
      | _ -> Alcotest.fail "a server record is an object")
    ticks

(* --- preempt then resume: bit-exactness ------------------------------------- *)

let read_final dir =
  match Checkpoint.load_latest ~dir with
  | None -> Alcotest.failf "no valid checkpoint in %s" dir
  | Some (info, fields) -> (fields, info.Checkpoint.step, info.Checkpoint.time)

let test_preempt_resume_bitexact () =
  let root1 = tmpdir "serve_solo" and root2 = tmpdir "serve_sliced" in
  Fun.protect ~finally:(fun () -> rm_rf root1; rm_rf root2) @@ fun () ->
  (* uninterrupted reference run; tend 10 gives bx ~0.1 s of stepping on a
     2-vCPU host, several times the 0.02 s slice below, so the sliced run
     preempts it however fast set-up is *)
  let solo =
    Engine.run ~jobs:[ small_job ~tend:10.0 "bx" ]
      { (quiet_cfg ~root:root1) with Engine.concurrency = 1; slice_wall = 60.0 }
  in
  Alcotest.(check int) "solo done" 1 solo.Engine.jobs_done;
  Alcotest.(check int) "solo ran in one slice" 0 solo.Engine.total_preempts;
  (* same job forced through preempt/resume cycles by a sibling at c=1 *)
  let sliced =
    Engine.run
      ~jobs:[ small_job ~tend:10.0 "bx"; small_job ~tend:10.0 "sib" ]
      { (quiet_cfg ~root:root2) with Engine.concurrency = 1; slice_wall = 0.02 }
  in
  Alcotest.(check int) "sliced both done" 2 sliced.Engine.jobs_done;
  let bx = outcome_of sliced "bx" in
  Alcotest.(check bool)
    "bx was preempted at least once" true (bx.Engine.preempts >= 1);
  let f1, step1, t1 = read_final (Filename.concat (Filename.concat root1 "jobs") "bx") in
  let f2, step2, t2 = read_final bx.Engine.checkpoint_dir in
  Alcotest.(check int) "same final step" step1 step2;
  Alcotest.(check bool) "same final time (bitwise)" true
    (Int64.bits_of_float t1 = Int64.bits_of_float t2);
  List.iter2
    (fun a b ->
      let da = Field.data a and db = Field.data b in
      Alcotest.(check int) "field sizes" (Array.length da) (Array.length db);
      Array.iteri
        (fun i va ->
          if Int64.bits_of_float va <> Int64.bits_of_float db.(i) then
            Alcotest.failf
              "preempted trajectory diverged at coefficient %d: %.17g <> %.17g"
              i va db.(i))
        da)
    f1 f2

(* --- fault containment ------------------------------------------------------ *)

let test_fault_containment () =
  let root = tmpdir "serve_fault" in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let jobs =
    [
      small_job "ok-1";
      (* zeroed ladder + no crash retries: the injected NaN must kill it *)
      small_job ~fault:8 ~crash_retries:0 "doomed";
      small_job "ok-2";
    ]
  in
  let s = Engine.run ~jobs { (quiet_cfg ~root) with Engine.concurrency = 2 } in
  Alcotest.(check int) "siblings finished" 2 s.Engine.jobs_done;
  Alcotest.(check int) "the fault job failed" 1 s.Engine.jobs_failed;
  (match (outcome_of s "doomed").Engine.outcome with
  | Engine.Failed why ->
      Alcotest.(check bool)
        "failure names the NaN abort" true
        (contains why "NaN" || contains why "non-finite")
  | o -> Alcotest.failf "doomed ended %s" (Engine.outcome_to_string o));
  (* with the full ladder the same bomb is absorbed by rollback/retry *)
  let root2 = tmpdir "serve_heal" in
  Fun.protect ~finally:(fun () -> rm_rf root2) @@ fun () ->
  let healing =
    Job.make ~id:"healer" ~scenario:"landau" ~cells_x:16 ~cells_v:16
      ~poly_order:1 ~tend:1.0 ~checkpoint_every:5 ~check_every:5
      ~max_retries:8 ~max_restores:1 ~crash_retries:1 ~fault_nan_step:8 ()
  in
  let s2 = Engine.run ~jobs:[ healing ] (quiet_cfg ~root:root2) in
  Alcotest.(check int) "ladder absorbed the fault" 1 s2.Engine.jobs_done

(* --- drains: SIGTERM and the server's own wall budget ------------------------ *)

(* Jobs far too long to finish: the drain must park every running one at
   a valid checkpoint, fail none, and a rerun must resume and finish. *)
let check_drain ~name ~sup ~stop ~reason =
  let root = tmpdir name in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let jobs = List.init 3 (fun i -> small_job ~tend:500.0 (Printf.sprintf "d%d" i)) in
  let stopper = Domain.spawn stop in
  let s =
    Engine.run ~jobs ~supervisor:sup
      { (quiet_cfg ~root) with Engine.concurrency = 2; slice_wall = 60.0 }
  in
  Domain.join stopper;
  Alcotest.(check (option string)) "drain reason" (Some reason) s.Engine.stopped;
  Alcotest.(check int) "nothing finished" 0 s.Engine.jobs_done;
  Alcotest.(check int) "nothing failed" 0 s.Engine.jobs_failed;
  Alcotest.(check int) "everything drained" 3 s.Engine.jobs_drained;
  (* every job that got to run left a valid resumable checkpoint *)
  let parked_with_ckpt =
    List.filter
      (fun (r : Engine.record) ->
        r.Engine.slices > 0
        && Checkpoint.find_latest ~dir:r.Engine.checkpoint_dir <> None)
      s.Engine.records
  in
  Alcotest.(check bool)
    "the running jobs drained to valid checkpoints" true
    (List.length parked_with_ckpt >= 1);
  (* and the drained state resumes: rerun the batch, it picks up and finishes *)
  let short = List.init 3 (fun i -> small_job ~tend:0.2 (Printf.sprintf "d%d" i)) in
  let s2 =
    Engine.run ~jobs:short { (quiet_cfg ~root) with Engine.concurrency = 2 }
  in
  Alcotest.(check int) "drained jobs resumed and finished" 3 s2.Engine.jobs_done;
  List.iter
    (fun (r : Engine.record) ->
      Alcotest.(check bool)
        (r.Engine.job.Job.id ^ " resumed past its park point") true
        (r.Engine.steps > 0))
    s2.Engine.records

let test_sigterm_drain () =
  let sup = Supervisor.create () in
  check_drain ~name:"serve_drain" ~sup ~reason:"SIGTERM" ~stop:(fun () ->
      Unix.sleepf 0.5;
      Supervisor.request_stop sup "SIGTERM")

(* vmdg serve --max-wall: the server's budget drains its jobs; it is not
   each job's own max_wall, which fails the job. *)
let test_max_wall_drain () =
  check_drain ~name:"serve_maxwall" ~sup:(Supervisor.create ~max_wall:0.5 ())
    ~reason:"max-wall" ~stop:ignore

(* --- resume guards and accounting -------------------------------------------- *)

(* Same id, same cell counts, another scenario: twostream's state has
   landau's array sizes but not its domain (L = 2π/0.5, not 2π/0.35), so
   the resume must be refused, not run. *)
let test_foreign_checkpoint_refused () =
  let root = tmpdir "serve_foreign" in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let job scenario tend =
    Job.make ~id:"j" ~scenario ~cells_x:16 ~cells_v:24 ~poly_order:2 ~tend
      ~checkpoint_every:5 ()
  in
  let s1 = Engine.run ~jobs:[ job "twostream" 1.0 ] (quiet_cfg ~root) in
  Alcotest.(check int) "twostream done" 1 s1.Engine.jobs_done;
  let s2 = Engine.run ~jobs:[ job "landau" 2.0 ] (quiet_cfg ~root) in
  match (outcome_of s2 "j").Engine.outcome with
  | Engine.Failed why ->
      Alcotest.(check bool) "fails with the shape mismatch" true
        (contains why "shape does not match")
  | o -> Alcotest.failf "landau on twostream's checkpoint ended %s"
           (Engine.outcome_to_string o)

(* A resumed job is credited with the steps this server ran, not the
   steps of the run it resumed from. *)
let test_resumed_dof () =
  let root = tmpdir "serve_dof" in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let run tend =
    let j = small_job ~tend "r" in
    (outcome_of (Engine.run ~jobs:[ j ] (quiet_cfg ~root)) "r", j)
  in
  let first, j = run 0.2 in
  let per_step = App.dof_per_step (App.create (Job.spec j)) in
  Alcotest.(check (float 0.0)) "fresh run: every step"
    (float_of_int first.Engine.steps *. per_step) first.Engine.dof;
  let longer, _ = run 0.4 in
  Alcotest.(check (float 0.0)) "resumed run: only the new steps"
    (float_of_int (longer.Engine.steps - first.Engine.steps) *. per_step)
    longer.Engine.dof;
  let again, _ = run 0.4 in
  Alcotest.(check (float 0.0)) "finished job rerun: nothing" 0.0 again.Engine.dof

let () =
  Alcotest.run "dg_serve"
    [
      ( "serve",
        [
          Alcotest.test_case "queue ordering and priorities" `Quick
            test_jobq_ordering;
          Alcotest.test_case "job JSON parsing" `Quick test_job_parsing;
          Alcotest.test_case "omitted job fields take registry defaults"
            `Quick test_job_registry_defaults;
          Alcotest.test_case "wall budget spans resume" `Quick
            test_elapsed_offset;
          Alcotest.test_case "batch completes, cache shared" `Quick
            test_batch_completes;
          Alcotest.test_case "preempt-resume is bit-exact" `Quick
            test_preempt_resume_bitexact;
          Alcotest.test_case "status-stream job records" `Quick
            test_status_schema;
          Alcotest.test_case "fault containment" `Quick test_fault_containment;
          Alcotest.test_case "SIGTERM drains to checkpoints" `Quick
            test_sigterm_drain;
          Alcotest.test_case "server max-wall drains, fails nothing" `Quick
            test_max_wall_drain;
          Alcotest.test_case "another scenario's checkpoint is refused" `Quick
            test_foreign_checkpoint_refused;
          Alcotest.test_case "resumed job: DOF of its own steps" `Quick
            test_resumed_dof;
        ] );
    ]
