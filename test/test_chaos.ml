(* Chaos-layer tests (dg_chaos + the robustness seams it leans on):
   schedule determinism and replay, the shared queue-invariant checkers
   (unit + qcheck over random interleavings), the scheduler core's
   invariants as qcheck properties over event interleavings,
   admission-decoder totality
   under fuzz, the read/invalid split of spool file handling, the
   checkpoint reader under fuzz, the hung-slice watchdog
   (detect + resume + retries-exhausted + sibling isolation), the
   fixed-seed smoke and network campaigns end to end, and the verdict
   watched failing: one fact of a real campaign's observation perturbed
   at a time, each must fail exactly the checks that guard it. *)

module Chaos = Dg_chaos.Chaos
module Job = Dg_serve.Job
module Jobq = Dg_serve.Jobq
module Engine = Dg_serve.Engine
module Sched = Dg_serve.Sched
module Json = Dg_obs.Obs.Json
module Checkpoint = Dg_resilience.Checkpoint
module Grid = Dg_grid.Grid
module Field = Dg_grid.Field

let tmpdir name =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "vmdg_chaos_test_%s_%d" name (Unix.getpid ()))
  in
  let rec rm p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
        Sys.rmdir p
      end
      else Sys.remove p
  in
  rm d;
  Unix.mkdir d 0o755;
  d

let slurp path = In_channel.with_open_bin path In_channel.input_all

let spew path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* --- schedule determinism --------------------------------------------------- *)

let test_fingerprint () =
  let fp seed p = Chaos.schedule_fingerprint ~seed p in
  Alcotest.(check string)
    "same seed, same fingerprint (smoke)" (fp 42 Chaos.smoke)
    (fp 42 Chaos.smoke);
  Alcotest.(check string)
    "same seed, same fingerprint (standard)" (fp 42 Chaos.standard)
    (fp 42 Chaos.standard);
  Alcotest.(check bool)
    "different seeds differ" false
    (fp 42 Chaos.smoke = fp 7 Chaos.smoke);
  Alcotest.(check bool)
    "different profiles differ" false
    (fp 42 Chaos.smoke = fp 42 Chaos.standard)

let test_plan_pure () =
  let p1 = Chaos.plan ~seed:42 Chaos.smoke in
  let p2 = Chaos.plan ~seed:42 Chaos.smoke in
  let sig_of (pl : Chaos.plan) =
    ( List.map
        (fun (j : Chaos.planned) ->
          (j.Chaos.job.Job.id, j.Chaos.seq, j.Chaos.expected, j.Chaos.bit_exact))
        pl.Chaos.planned_jobs,
      pl.Chaos.drops,
      pl.Chaos.storm_at,
      pl.Chaos.corrupt_plan )
  in
  Alcotest.(check bool) "plan is a pure function of (seed, profile)" true
    (sig_of p1 = sig_of p2);
  Alcotest.(check int) "plan covers every planned job"
    (Chaos.job_count Chaos.smoke)
    (List.length p1.Chaos.planned_jobs)

(* --- shared invariant checkers ---------------------------------------------- *)

let test_invariant_checkers () =
  let ok = function Ok () -> true | Error _ -> false in
  Alcotest.(check bool) "priority desc, fifo within class" true
    (ok (Chaos.Invariant.queue_order [ (3, 0); (1, 1); (1, 2); (0, 4) ]));
  Alcotest.(check bool) "priority inversion caught" false
    (ok (Chaos.Invariant.queue_order [ (1, 1); (3, 0) ]));
  Alcotest.(check bool) "fifo violation within a class caught" false
    (ok (Chaos.Invariant.queue_order [ (2, 5); (2, 3) ]));
  Alcotest.(check bool) "multiset equality holds" true
    (ok
       (Chaos.Invariant.no_lost_or_dup ~submitted:[ "a"; "b"; "c" ]
          ~out:[ "c"; "a"; "b" ]));
  Alcotest.(check bool) "lost job caught" false
    (ok (Chaos.Invariant.no_lost_or_dup ~submitted:[ "a"; "b" ] ~out:[ "a" ]));
  Alcotest.(check bool) "duplicated job caught" false
    (ok
       (Chaos.Invariant.no_lost_or_dup ~submitted:[ "a"; "b" ]
          ~out:[ "a"; "a"; "b" ]))

(* Random batches through the real Jobq must satisfy the same checkers the
   campaign uses: pops ordered (priority desc, seq asc), nothing lost or
   duplicated. *)
let prop_jobq_discipline =
  let gen =
    QCheck.Gen.(list_size (int_range 1 40) (int_range 0 5))
  in
  let arb =
    QCheck.make
      ~print:(fun l -> String.concat "," (List.map string_of_int l))
      gen
  in
  QCheck.Test.make ~name:"jobq: priority/fifo discipline, no loss, no dup"
    ~count:200 arb (fun prios ->
      let q =
        List.fold_left
          (fun q (seq, priority) ->
            Jobq.push q ~priority ~seq (Printf.sprintf "j%d" seq, priority, seq))
          Jobq.empty
          (List.mapi (fun seq p -> (seq, p)) prios)
      in
      let rec pops acc q =
        match Jobq.pop q with
        | Some (x, q) -> pops (x :: acc) q
        | None -> List.rev acc
      in
      let out = pops [] q in
      (match
         Chaos.Invariant.queue_order
           (List.map (fun (_, p, s) -> (p, s)) out)
       with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "queue order: %s" e);
      (match
         Chaos.Invariant.no_lost_or_dup
           ~submitted:(List.mapi (fun seq _ -> Printf.sprintf "j%d" seq) prios)
           ~out:(List.map (fun (id, _, _) -> id) out)
       with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "lost/dup: %s" e);
      true)

(* --- scheduler core: properties over event interleavings -------------------- *)

(* The engine's scheduling decisions live in the pure [Sched] core, so the
   invariants the campaigns check live can also be checked here over
   thousands of generated event interleavings.  A generated choice list is
   interpreted against the current state (a report only for a running
   slice, a stale report only for a quarantined one, ...), then closed out
   with a drain, so that every admitted job must end. *)

type choice =
  | Submit_c of { prio : int; gate : bool }
  | Dup_c of { pick : int; gate : bool }
  | Cancel_c of int
  | Report_c of { pick : int; kind : int }
      (** 0 finished, 1 the slice's first requested stop (preempt, cancel,
          watchdog or drain), 2 max-wall, 3 crash *)
  | Tick_c of { dt : float; advance : bool; stale : int option }
  | Stale_report_c of int
  | Admit_c
  | Drain_c

let show_choice = function
  | Submit_c { prio; gate } ->
      Printf.sprintf "submit(p%d%s)" prio (if gate then ",gate" else "")
  | Dup_c { pick; gate } ->
      Printf.sprintf "dup(%d%s)" pick (if gate then ",gate" else "")
  | Cancel_c i -> Printf.sprintf "cancel(%d)" i
  | Report_c { pick; kind } -> Printf.sprintf "report(%d,k%d)" pick kind
  | Tick_c { dt; advance; stale } ->
      Printf.sprintf "tick(%.2f%s%s)" dt
        (if advance then ",step" else "")
        (match stale with Some i -> Printf.sprintf ",stale %d" i | None -> "")
  | Stale_report_c i -> Printf.sprintf "stale_report(%d)" i
  | Admit_c -> "admit"
  | Drain_c -> "drain"

let arb_choices =
  let open QCheck.Gen in
  let choice =
    frequency
      [
        ( 16,
          map2 (fun prio gate -> Submit_c { prio; gate }) (int_bound 3) bool );
        (4, map2 (fun pick gate -> Dup_c { pick; gate }) nat bool);
        (4, map (fun i -> Cancel_c i) nat);
        (16, map2 (fun pick kind -> Report_c { pick; kind }) nat (int_bound 3));
        ( 16,
          map3
            (fun dt advance stale -> Tick_c { dt; advance; stale })
            (float_bound_inclusive 2.5) bool
            (frequency [ (1, map Option.some nat); (6, return None) ]) );
        (4, map (fun i -> Stale_report_c i) nat);
        (12, return Admit_c);
        (1, return Drain_c);
      ]
  in
  QCheck.make
    ~print:(fun l -> String.concat " " (List.map show_choice l))
    (list_size (int_range 1 60) choice)

let sched_cfg =
  { Sched.total = 3; slice_wall = 1.0; slice_deadline = 5.0; admit_watermark = 4 }

type sched_step = {
  ev : Sched.event;
  before : Sched.t;
  after : Sched.t;
  acts : Sched.action list;
  dup : bool;  (** a resubmit of a known id *)
}

type sched_trace = {
  steps : sched_step list;
  submitted : string list;  (** admitted ids, in admission order *)
  initial : (string * int * int) list;
      (** (id, priority, seq) admitted before the first [Admit] *)
}

let job_emit = function
  | Sched.Emit ("job", fields) -> (
      match (List.assoc_opt "id" fields, List.assoc_opt "event" fields) with
      | Some (Json.Str id), Some (Json.Str ev) -> Some (id, ev, fields)
      | _ -> None)
  | _ -> None

let is_terminal ev = ev = "done" || ev = "failed" || ev = "drained"

let simulate choices =
  let st = ref (Sched.create sched_cfg ~now:0.0) in
  let now = ref 0.0 in
  let log = ref [] and submitted = ref [] and initial = ref [] in
  let admitted_once = ref false in
  let progress = Hashtbl.create 16 in  (* (id, slice) -> steps reached *)
  let stop_req = Hashtbl.create 16 in  (* first stop reason, as Supervisor *)
  let quarantined = ref [] in
  let step ?(dup = false) ev =
    let before = !st in
    let after, acts = Sched.step before ev in
    st := after;
    List.iter
      (fun a ->
        match (a, job_emit a) with
        | Sched.Launch (j, r), _ ->
            Hashtbl.replace progress (j.Sched.job.Job.id, r.Sched.slice) j.steps
        | Sched.Stop { id; slice; reason }, _ ->
            if not (Hashtbl.mem stop_req (id, slice)) then
              Hashtbl.replace stop_req (id, slice) reason
        | _, Some (id, "hung", fields) -> (
            match List.assoc_opt "slice" fields with
            | Some (Json.Int slice) -> quarantined := (id, slice) :: !quarantined
            | _ -> ())
        | _ -> ())
      acts;
    log := { ev; before; after; acts; dup } :: !log
  in
  let running () =
    List.filter_map
      (fun (j : Sched.job) ->
        match j.phase with
        | Sched.Running r -> Some (j.job.Job.id, r.Sched.slice)
        | _ -> None)
      (Sched.running !st)
  in
  let pick l i =
    match l with [] -> None | _ -> Some (List.nth l (i mod List.length l))
  in
  let mk id priority =
    Job.make ~id ~scenario:"advect" ~priority ~cells_x:4 ~cells_v:4
      ~poly_order:1 ~tend:1.0 ()
  in
  let submit_event job gate =
    if gate then
      Sched.Request { now = !now; probes = []; req = Dg_serve.Intake.Submit job }
    else Sched.Submit (job, Sched.Initial)
  in
  let report ((id, slice) as s) ending =
    let steps = Hashtbl.find progress s in
    step
      (Sched.Report
         { id; slice; ending; steps; time = 0.1 *. float_of_int steps;
           wall = 0.5; dof = 1.0 })
  in
  let ending_of s = function
    | 0 -> Sched.Completed
    | 1 -> (
        match Hashtbl.find_opt stop_req s with
        | Some why -> Sched.Stopped why
        | None -> Sched.Completed)
    | 2 -> Sched.Stopped "max-wall"
    | _ -> Sched.Crashed "boom"
  in
  List.iter
    (function
      | Submit_c { prio; gate } ->
          let n = List.length !submitted in
          let id = Printf.sprintf "j%d" n in
          step (submit_event (mk id prio) gate);
          if Sched.find !st id <> None then begin
            submitted := id :: !submitted;
            if not !admitted_once then initial := (id, prio, n) :: !initial
          end
      | Dup_c { pick = i; gate } ->
          Option.iter
            (fun id -> step ~dup:true (submit_event (mk id 3) gate))
            (pick !submitted i)
      | Cancel_c i ->
          Option.iter
            (fun id ->
              step
                (Sched.Request
                   { now = !now; probes = []; req = Dg_serve.Intake.Cancel id }))
            (pick !submitted i)
      | Report_c { pick = i; kind } ->
          Option.iter (fun s -> report s (ending_of s kind)) (pick (running ()) i)
      | Tick_c { dt; advance; stale } ->
          now := !now +. dt;
          let run = running () in
          if advance then
            List.iter
              (fun s -> Hashtbl.replace progress s (Hashtbl.find progress s + 1))
              run;
          let stale = Option.bind stale (pick run) in
          let probes =
            List.map
              (fun ((id, slice) as s) ->
                {
                  Sched.id;
                  slice;
                  steps = Hashtbl.find progress s;
                  time = 0.0;
                  heartbeat =
                    (if Some s = stale then
                       !now -. sched_cfg.slice_deadline -. 1.0
                     else !now);
                  started = 0.0;
                })
              run
          in
          step (Sched.Tick { now = !now; probes })
      | Stale_report_c i ->
          Option.iter
            (fun s ->
              quarantined := List.filter (( <> ) s) !quarantined;
              report s Sched.Completed)
            (pick !quarantined i)
      | Admit_c ->
          admitted_once := true;
          step (Sched.Admit { now = !now })
      | Drain_c -> step (Sched.Drain "test"))
    choices;
  (* close out: drain, and every running slice honours its first stop *)
  step (Sched.Drain "close");
  List.iter (fun s -> report s (ending_of s 1)) (running ());
  {
    steps = List.rev !log;
    submitted = List.rev !submitted;
    initial = List.rev !initial;
  }

let sched_prop name check =
  QCheck.Test.make ~name:("sched: " ^ name) ~count:400 arb_choices (fun cs ->
      (match check (simulate cs) with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "%s" e);
      true)

let all_actions t = List.concat_map (fun s -> s.acts) t.steps

let prop_sched_no_lost_or_dup =
  sched_prop "nothing lost or duplicated" (fun t ->
      let out =
        List.filter_map
          (fun a ->
            match job_emit a with
            | Some (id, ev, _) when is_terminal ev -> Some id
            | _ -> None)
          (all_actions t)
      in
      Chaos.Invariant.no_lost_or_dup ~submitted:t.submitted ~out)

let prop_sched_queue_order =
  sched_prop "first starts follow priority, FIFO within a priority" (fun t ->
      List.filter_map
        (function
          | Sched.Launch (j, { Sched.slice = 1; _ }) ->
              List.find_map
                (fun (id, p, seq) ->
                  if id = j.Sched.job.Job.id then Some (p, seq) else None)
                t.initial
          | _ -> None)
        (all_actions t)
      |> Chaos.Invariant.queue_order)

let prop_sched_budget =
  sched_prop "running slices <= slots; slots shrink only on quarantine"
    (fun t ->
      List.fold_left
        (fun acc s ->
          Result.bind acc (fun () ->
              let running = List.length (Sched.running s.after) in
              let hung =
                List.length
                  (List.filter
                     (fun a ->
                       match job_emit a with
                       | Some (_, "hung", _) -> true
                       | _ -> false)
                     s.acts)
              in
              let t0 = Sched.total s.before and t1 = Sched.total s.after in
              if running > t1 then
                Error (Printf.sprintf "%d slices running on %d slots" running t1)
              else if t0 - t1 <> hung then
                Error
                  (Printf.sprintf "slots %d -> %d on a step with %d quarantines"
                     t0 t1 hung)
              else Ok ()))
        (Ok ()) t.steps)

let prop_sched_preempt_guard =
  sched_prop "no preempt before progress" (fun t ->
      let launched = Hashtbl.create 16 in
      List.fold_left
        (fun acc s ->
          Result.bind acc (fun () ->
              let bad =
                List.find_map
                  (function
                    | Sched.Stop { id; slice; reason = "preempt" } -> (
                        let from = Hashtbl.find launched (id, slice) in
                        match s.ev with
                        | Sched.Tick { probes; _ } -> (
                            match
                              List.find_opt
                                (fun (p : Sched.probe) ->
                                  p.id = id && p.slice = slice)
                                probes
                            with
                            | Some p when p.steps > from -> None
                            | _ ->
                                Some
                                  (Printf.sprintf
                                     "%s slice %d preempted without a step" id
                                     slice))
                        | _ -> Some "preempt outside a tick")
                    | _ -> None)
                  s.acts
              in
              List.iter
                (function
                  | Sched.Launch (j, r) ->
                      Hashtbl.replace launched
                        (j.Sched.job.Job.id, r.Sched.slice)
                        j.Sched.steps
                  | _ -> ())
                s.acts;
              match bad with Some e -> Error e | None -> Ok ()))
        (Ok ()) t.steps)

let prop_sched_dup_never_launches =
  sched_prop "a dup submit never launches" (fun t ->
      let first_starts = Hashtbl.create 16 in
      List.fold_left
        (fun acc s ->
          Result.bind acc (fun () ->
              List.iter
                (function
                  | Sched.Launch (j, { Sched.slice = 1; _ }) ->
                      let id = j.Sched.job.Job.id in
                      Hashtbl.replace first_starts id
                        (1 + Option.value ~default:0
                               (Hashtbl.find_opt first_starts id))
                  | _ -> ())
                s.acts;
              let enqueued =
                List.exists
                  (fun a ->
                    match (a, job_emit a) with
                    | Sched.Launch _, _ | _, Some (_, "queued", _) -> true
                    | _ -> false)
                  s.acts
              in
              if s.dup && enqueued then Error "a dup submit was enqueued"
              else if
                s.dup
                && List.length (Sched.jobs s.after)
                   <> List.length (Sched.jobs s.before)
              then Error "a dup submit changed the job table"
              else
                match
                  Hashtbl.fold
                    (fun id n acc -> if n > 1 then Some id else acc)
                    first_starts None
                with
                | Some id -> Error (id ^ " started fresh twice")
                | None -> Ok ()))
        (Ok ()) t.steps)

let prop_sched_cancel_wins =
  sched_prop "a client cancel beats any racing stop reason" (fun t ->
      (* ids whose cancel landed on a running slice, until that slice ends *)
      let pending = Hashtbl.create 8 in
      List.fold_left
        (fun acc s ->
          Result.bind acc (fun () ->
              let ended =
                Hashtbl.fold
                  (fun id slice acc ->
                    match Sched.find s.after id with
                    | Some { phase = Sched.Running r; _ } when r.Sched.slice = slice
                      ->
                        acc
                    | _ -> (id, slice) :: acc)
                  pending []
              in
              let verdict id =
                List.find_map
                  (fun a ->
                    match job_emit a with
                    | Some (i, ev, fields) when i = id && is_terminal ev ->
                        Some (ev, List.assoc_opt "error" fields)
                    | _ -> None)
                  s.acts
              in
              let completed id slice =
                match s.ev with
                | Sched.Report { id = i; slice = sl; ending = Sched.Completed; _ }
                  ->
                    i = id && sl = slice
                | _ -> false
              in
              let bad =
                List.find_map
                  (fun (id, slice) ->
                    Hashtbl.remove pending id;
                    match verdict id with
                    | Some ("failed", Some (Json.Str "cancelled by client")) -> None
                    | Some ("done", _) when completed id slice -> None
                    | _ ->
                        Some
                          (Printf.sprintf "cancelled %s slice %d did not end cancelled"
                             id slice))
                  ended
              in
              (match s.ev with
              | Sched.Request { req = Dg_serve.Intake.Cancel id; _ } -> (
                  match Sched.find s.before id with
                  | Some { phase = Sched.Running r; _ } ->
                      Hashtbl.replace pending id r.Sched.slice
                  | _ -> ())
              | _ -> ());
              match bad with Some e -> Error e | None -> Ok ()))
        (Ok ()) t.steps)

let prop_sched_deterministic =
  sched_prop "the same events yield the same actions" (fun t ->
      let _, replayed =
        List.fold_left
          (fun (st, acc) s ->
            let st, acts = Sched.step st s.ev in
            (st, acts :: acc))
          (Sched.create sched_cfg ~now:0.0, [])
          t.steps
      in
      if List.rev replayed = List.map (fun s -> s.acts) t.steps then Ok ()
      else Error "replaying the event list changed the actions")

(* A running job's status is what its slice's probe shows now, not where
   its last slice ended: during a first slice that would read step 0 and
   wall_s 0.  Its wall time counts from the slice's start to [now]. *)
let test_sched_live_status () =
  let st = Sched.create sched_cfg ~now:0.0 in
  let job = Job.make ~id:"a" ~scenario:"advect" ~cells_x:4 ~cells_v:4 () in
  let st, _ = Sched.step st (Sched.Submit (job, Sched.Initial)) in
  let st, _ = Sched.step st (Sched.Admit { now = 0.0 }) in
  let probes =
    [ { Sched.id = "a"; slice = 1; steps = 5; time = 0.75; heartbeat = 1.0;
        started = 0.25 } ]
  in
  let st, _ = Sched.step st (Sched.Tick { now = 1.0; probes }) in
  match
    Sched.step st
      (Sched.Request
         { now = 1.0; probes; req = Dg_serve.Intake.Status (Some "a") })
  with
  | _, [ Sched.Reply (Dg_serve.Intake.Status_of j) ] ->
      Alcotest.(check string) "state" "running"
        (Json.to_str (Json.member "state" j));
      Alcotest.(check int) "live step" 5 (Json.to_int (Json.member "step" j));
      Alcotest.(check (float 0.0)) "live t" 0.75
        (Json.to_float (Json.member "t" j));
      Alcotest.(check (float 0.0)) "live wall_s" 0.75
        (Json.to_float (Json.member "wall_s" j))
  | _ -> Alcotest.fail "a status request must get one status reply"

(* The SIGUSR1 dump names every running job with its live step and wall
   time, every queued job, and the tallies, watchdog and admission
   counts. *)
let test_sched_status_dump () =
  let mk id = Job.make ~id ~scenario:"advect" ~cells_x:4 ~cells_v:4 () in
  let report id ending : Sched.event =
    Sched.Report { id; slice = 1; ending; steps = 4; time = 0.5; wall = 0.1;
                   dof = 1.0 }
  in
  let st =
    List.fold_left
      (fun st ev -> fst (Sched.step st ev))
      (Sched.create sched_cfg ~now:0.0)
      (List.map (fun id -> Sched.Submit (mk id, Sched.Initial))
         [ "a"; "b"; "c"; "d"; "e"; "f" ]
      @ [
          Sched.Admit { now = 0.0 };
          report "a" Sched.Completed;
          report "b" (Sched.Stopped "max-wall");
          (* c's heartbeat stalls: quarantined, requeued behind f *)
          Sched.Tick
            { now = 9.0;
              probes =
                [ { Sched.id = "c"; slice = 1; steps = 1; time = 0.1;
                    heartbeat = 0.0; started = 0.0 } ] };
          Sched.Admit { now = 9.0 };
          Sched.Submit (mk "a", Sched.Initial);
          Sched.Invalid { path = "spool/x.json"; id = "x"; why = "bad" };
        ])
  in
  let probe id steps time : Sched.probe =
    { id; slice = 1; steps; time; heartbeat = 9.0; started = 0.0 }
  in
  let dump =
    Sched.status_dump st ~now:10.0
      ~probes:[ probe "d" 12 1.5; probe "e" 7 0.875 ]
  in
  let lines = String.split_on_char '\n' dump in
  let has line sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length line && (String.sub line i n = sub || go (i + 1))
    in
    go 0
  in
  let line_of id =
    match List.filter (fun l -> has l (" id=" ^ id ^ " ")) lines with
    | [ l ] -> l
    | ls -> Alcotest.failf "%d dump lines for job %s in:\n%s" (List.length ls) id dump
  in
  let expect line sub =
    if not (has line sub) then Alcotest.failf "%S lacks %S in:\n%s" line sub dump
  in
  List.iter (expect (List.hd lines))
    [ "serve: "; " done=1 "; " failed=1 "; " inflight_jobs=2 "; " queue_depth=2 ";
      " rejects=2 "; " hangs_detected=1 "; " slots_quarantined=1 "; " stuck=1" ];
  List.iter
    (fun (id, step, t) ->
      let l = line_of id in
      List.iter (expect l)
        [ "state=running"; " step=" ^ step ^ " "; " t=" ^ t ^ " "; " wall_s=10" ])
    [ ("d", "12", "1.5"); ("e", "7", "0.875") ];
  List.iter (fun id -> expect (line_of id) "state=queued") [ "f"; "c" ];
  List.iter
    (fun id ->
      if List.exists (fun l -> has l (" id=" ^ id ^ " ")) lines then
        Alcotest.failf "ended job %s listed in:\n%s" id dump)
    [ "a"; "b" ]

(* --- admission hardening ---------------------------------------------------- *)

(* The admission decoder is the only path from arbitrary spool bytes to a
   job; it must be total — any byte string maps to Ok or Error, never an
   exception. *)
let prop_admission_total =
  let raw_bytes =
    QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 600))
  in
  let jsonish =
    QCheck.Gen.(
      let* tend =
        oneofl [ 0.0; -1.0; 1e-300; 0.5; 1e308; infinity; Float.nan ]
      in
      let* cells = int_range (-10) 5000 in
      let* p = int_range (-3) 12 in
      let* junk = string_size ~gen:printable (int_bound 30) in
      return
        (Printf.sprintf
           {|{"id":"f","scenario":"advect","tend":%g,"cells":[%d,%d],"p":%d,"x":%S}|}
           tend cells cells p junk))
  in
  let arb =
    QCheck.make ~print:String.escaped QCheck.Gen.(oneof [ raw_bytes; jsonish ])
  in
  QCheck.Test.make ~name:"admission: of_string_result is total" ~count:500 arb
    (fun s ->
      match Job.of_string_result s with
      | Ok j ->
          (* anything admitted must also satisfy the validator *)
          Job.validate j;
          true
      | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "of_string_result raised %s"
            (Printexc.to_string e))

(* The read/invalid split that fixes the spool-scan race: transient read
   failures must come back as [`Read] (retry on the next scan), definitive
   garbage as [`Invalid] (reject), valid files as [Ok]. *)
let test_of_file_split () =
  let dir = tmpdir "spool" in
  let chk name bytes expect =
    let p = Filename.concat dir name in
    spew p bytes;
    let got =
      match Job.of_file_result p with
      | Ok _ -> `Ok
      | Error (`Read _) -> `Read
      | Error (`Invalid _) -> `Invalid
    in
    if got <> expect then
      Alcotest.failf "%s: wrong verdict (want %s)" name
        (match expect with `Ok -> "Ok" | `Read -> "Read" | `Invalid -> "Invalid")
  in
  (match Job.of_file_result (Filename.concat dir "nope.json") with
  | Error (`Read _) -> ()
  | _ -> Alcotest.fail "missing file must be a transient `Read failure");
  chk "good.json" {|{"scenario":"advect","cells":[8,8],"tend":0.1}|} `Ok;
  chk "garbage.json" "\x00\x01\x02 not json" `Invalid;
  chk "overdeep.json" (String.make 4000 '[') `Invalid;
  chk "oversize.json" (String.make (Job.max_file_bytes + 1) 'x') `Invalid;
  chk "badrange.json" {|{"scenario":"advect","p":9}|} `Invalid

(* --- checkpoint reader fuzz ---------------------------------------------------- *)

type mutation = Truncate of float | Flip of float * int

let pp_mut = function
  | Truncate f -> Printf.sprintf "truncate@%.3f" f
  | Flip (f, m) -> Printf.sprintf "flip@%.3f mask %#x" f m

let arb_mut =
  QCheck.make ~print:pp_mut
    QCheck.Gen.(
      oneof
        [
          map (fun f -> Truncate f) (float_bound_exclusive 1.0);
          map2
            (fun f m -> Flip (f, m))
            (float_bound_exclusive 1.0) (int_range 1 255);
        ])

(* Apply a mutation to [bytes]; always returns something that differs from
   the original. *)
let mutate bytes = function
  | Truncate f -> String.sub bytes 0 (int_of_float (f *. float_of_int (String.length bytes)))
  | Flip (f, mask) ->
      let b = Bytes.of_string bytes in
      let i =
        min (Bytes.length b - 1)
          (int_of_float (f *. float_of_int (Bytes.length b)))
      in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
      Bytes.to_string b

let small_fields () =
  let g = Grid.make ~cells:[| 4; 3 |] ~lower:[| 0.; -1. |] ~upper:[| 1.; 1. |] in
  let mk seed =
    let f = Field.create g ~ncomp:3 in
    let d = Field.data f in
    Array.iteri (fun i _ -> d.(i) <- sin (float_of_int (i + seed))) d;
    f
  in
  [ mk 1; mk 2 ]

(* Any single truncation or bit flip of a checkpoint file must be caught:
   the checksum covers every byte, so [validate] goes false and [read]
   fails cleanly instead of resuming from silently corrupt state. *)
let prop_checkpoint_fuzz =
  let dir = tmpdir "ckptfuzz" in
  let info =
    Checkpoint.write ~dir ~step:7 ~time:0.35 (small_fields ())
  in
  let good = slurp info.Checkpoint.path in
  QCheck.Test.make ~name:"checkpoint reader rejects any corruption" ~count:150
    arb_mut (fun mut ->
      let p = Filename.concat dir "mutant.vmdg" in
      spew p (mutate good mut);
      if Checkpoint.validate p then
        QCheck.Test.fail_reportf "corrupt checkpoint accepted (%s)" (pp_mut mut);
      (match Checkpoint.read p with
      | _ -> QCheck.Test.fail_reportf "read succeeded on %s" (pp_mut mut)
      | exception Failure _ -> ()
      | exception e ->
          QCheck.Test.fail_reportf "read raised %s on %s" (Printexc.to_string e)
            (pp_mut mut));
      true)

(* The same mutations behind a checksum recomputed over the mutated bytes
   reach the field-record decoder itself.  A flipped coefficient may read
   back, but nothing may escape as anything other than a clean [Failure]:
   no [End_of_file], no [Invalid_argument] from grid construction or a
   short string, no absurd allocation from a hostile header. *)
let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let prop_record_fuzz =
  let dir = tmpdir "recordfuzz" in
  let info = Checkpoint.write ~dir ~step:7 ~time:0.35 (small_fields ()) in
  let good = slurp info.Checkpoint.path in
  let body = String.sub good 0 (String.length good - 8) in
  QCheck.Test.make ~name:"snapshot reader fails cleanly on corruption"
    ~count:150 arb_mut (fun mut ->
      let p = Filename.concat dir "mutant.vmdg" in
      let forged = mutate body mut in
      let trailer = Bytes.create 8 in
      Bytes.set_int64_be trailer 0 (fnv64 forged);
      spew p (forged ^ Bytes.to_string trailer);
      (match Checkpoint.read p with
      | _ -> () (* payload flip: reads back as different data — fine *)
      | exception Failure _ -> ()
      | exception e ->
          QCheck.Test.fail_reportf "read raised %s on %s"
            (Printexc.to_string e) (pp_mut mut));
      true)

(* --- hung-slice watchdog ----------------------------------------------------- *)

(* One engine run exercises the whole watchdog story: a hang job with a
   retry budget resumes and completes, a hang job with a zeroed budget gets
   the tier-3 hang verdict, the plain sibling is untouched, and each hang
   permanently quarantines the stuck slot. *)
let test_watchdog () =
  let root = tmpdir "watchdog" in
  let mk ?fault_hang_step ?(hang_retries = 1) id =
    Job.make ~id ~scenario:"advect" ~cells_x:12 ~cells_v:12 ~poly_order:1
      ~tend:0.4 ~checkpoint_every:3 ~check_every:5 ~hang_retries
      ?fault_hang_step ~fault_hang_s:4.5 ()
  in
  let jobs =
    [
      mk ~fault_hang_step:4 "hang-heals";
      mk ~fault_hang_step:4 ~hang_retries:0 "hang-doomed";
      mk "sibling";
    ]
  in
  let cfg =
    {
      (Engine.default_config ~root) with
      Engine.concurrency = 3;
      slice_wall = 60.0;
      (* generous: construction under 3-way contention must not trip it *)
      slice_deadline = 2.0;
      poll_interval = 0.01;
    }
  in
  let s = Engine.run ~jobs cfg in
  let outcome id =
    let r =
      List.find (fun (r : Engine.record) -> r.Engine.job.Job.id = id)
        s.Engine.records
    in
    r.Engine.outcome
  in
  Alcotest.(check int) "both hangs detected" 2 s.Engine.watchdog_hangs;
  Alcotest.(check bool) "stuck slots quarantined" true
    (s.Engine.slots_quarantined >= 2);
  (match outcome "hang-heals" with
  | Engine.Done -> ()
  | o ->
      Alcotest.failf "hang-heals must resume to Done, got %s"
        (Engine.outcome_to_string o));
  (match outcome "hang-doomed" with
  | Engine.Failed why ->
      Alcotest.(check bool) "failure names the hang" true
        (String.length why >= 4
        &&
        let lower = String.lowercase_ascii why in
        let rec has i =
          i + 4 <= String.length lower
          && (String.sub lower i 4 = "hung" || has (i + 1))
        in
        has 0)
  | o ->
      Alcotest.failf "hang-doomed must fail, got %s" (Engine.outcome_to_string o));
  (match outcome "sibling" with
  | Engine.Done -> ()
  | o ->
      Alcotest.failf "sibling must be unperturbed, got %s"
        (Engine.outcome_to_string o))

(* --- campaigns ----------------------------------------------------------------- *)

(* Each campaign runs once: its report, and the observation inside it, is
   shared by the campaign test and the verdict mutation tests below. *)
let campaign p seed = lazy (Chaos.run_campaign ~seed ~log:(fun _ -> ()) p)
let smoke_42 = campaign Chaos.smoke 42
let network_42 = campaign Chaos.network 42
let network_7 = campaign Chaos.network 7

let test_smoke_campaign () =
  let r = Lazy.force smoke_42 in
  List.iter
    (fun (c : Chaos.check) ->
      if not c.Chaos.ok then
        Alcotest.failf "invariant %s violated: %s" c.Chaos.check_name
          c.Chaos.detail)
    r.Chaos.violations;
  Alcotest.(check bool) "campaign green" true (Chaos.passed r);
  Alcotest.(check string) "report carries the planned fingerprint"
    (Chaos.schedule_fingerprint ~seed:42 Chaos.smoke)
    r.Chaos.fingerprint;
  Alcotest.(check bool) "meaningful fault volume" true
    (r.Chaos.faults_injected >= 10);
  Alcotest.(check bool) "invariant battery ran" true
    (r.Chaos.invariant_checks >= 15);
  Alcotest.(check bool) "watchdog fired on the planted hang" true
    (r.Chaos.watchdog_hangs >= 1);
  Alcotest.(check bool) "garbage was rejected at admission" true
    (r.Chaos.admission_rejects >= 1)

(* the acceptance gate for the socket ingress: the network profile —
   mid-frame disconnects, stalled clients, garbage frames, duplicate
   submits, storm submits during a SIGTERM drain — must end green at two
   seeds: no job lost, none executed twice (the dup submits must come
   back [Accepted {dup = true}]), server alive across every cycle *)
let test_network_campaign seed run () =
  let r = Lazy.force run in
  List.iter
    (fun (c : Chaos.check) ->
      if not c.Chaos.ok then
        Alcotest.failf "invariant %s violated: %s" c.Chaos.check_name
          c.Chaos.detail)
    r.Chaos.violations;
  Alcotest.(check bool) "campaign green" true (Chaos.passed r);
  Alcotest.(check string) "report carries the planned fingerprint"
    (Chaos.schedule_fingerprint ~seed Chaos.network)
    r.Chaos.fingerprint;
  Alcotest.(check bool) "network faults actually fired" true
    (r.Chaos.net_faults >= Chaos.network.Chaos.net_garbage);
  (* the battery must include the gate checks (gate-alive per cycle,
     idempotent-ACK, dup-acked, ...) on top of the standard invariants *)
  Alcotest.(check bool) "gate invariant battery ran" true
    (r.Chaos.invariant_checks >= 15)

(* --- the verdict, watched failing -------------------------------------------- *)

(* The verdict is a pure function of the plan and a campaign's
   observation.  Perturbing one observed fact of a real (green) campaign
   must fail exactly the checks that guard that fact, and no other. *)

let failing checks =
  List.filter_map
    (fun (c : Chaos.check) -> if c.Chaos.ok then None else Some c.Chaos.check_name)
    checks
  |> List.sort_uniq compare

let ends id (r : Engine.record) =
  r.Engine.job.Job.id = id && r.Engine.outcome <> Engine.Drained

(* rewrite the summary of every cycle that ran *)
let map_summaries f (obs : Chaos.observation) =
  {
    obs with
    Chaos.runs =
      List.map
        (fun (c : Chaos.cycle) ->
          { c with Chaos.summary = Result.map f c.Chaos.summary })
        obs.Chaos.runs;
  }

let map_records f =
  map_summaries (fun s -> { s with Engine.records = f s.Engine.records })

(* the record mutations pick on the first planned job *)
let victim (pl : Chaos.plan) = (List.hd pl.Chaos.planned_jobs).Chaos.job.Job.id

let drop_terminal pl = map_records (List.filter (fun r -> not (ends (victim pl) r)))

let dup_terminal pl =
  map_records (List.concat_map (fun r -> if ends (victim pl) r then [ r; r ] else [ r ]))

(* flip the low bit of the middle word of one final checkpoint, on a copy
   of the field so the observation itself (and the reference) stay intact *)
let flip_final _ (obs : Chaos.observation) =
  match List.find_opt (fun (_, l) -> Option.is_some l) obs.Chaos.finals with
  | Some (id, Some (info, f :: fs)) ->
      let f = Field.clone f in
      let d = Field.data f in
      let i = Array.length d / 2 in
      d.(i) <- Int64.(float_of_bits (logxor (bits_of_float d.(i)) 1L));
      let finals =
        List.map
          (fun (j, l) -> if j = id then (j, Some (info, f :: fs)) else (j, l))
          obs.Chaos.finals
      in
      { obs with Chaos.finals }
  | _ -> Alcotest.fail "no final checkpoint to perturb"

let swap_first_starts _ (obs : Chaos.observation) =
  match obs.Chaos.first_starts with
  | a :: b :: rest -> { obs with Chaos.first_starts = b :: a :: rest }
  | _ -> Alcotest.fail "fewer than two first starts"

let zero_hangs _ = map_summaries (fun s -> { s with Engine.watchdog_hangs = 0 })

(* one duplicate submit over the gate answered as a fresh accept *)
let fresh_accept (pl : Chaos.plan) (obs : Chaos.observation) =
  let id =
    List.find_map
      (function _, _, Chaos.Net_dup id -> Some id | _ -> None)
      pl.Chaos.net_events
    |> Option.get
  in
  let t = obs.Chaos.tallies in
  {
    obs with
    Chaos.tallies =
      { t with Chaos.dup_acks = t.Chaos.dup_acks - 1; fresh_acks = [ id ] };
  }

let verdict_of p seed run mutate =
  let pl = Chaos.plan ~seed p in
  Chaos.verdict p pl (mutate pl (Lazy.force run).Chaos.observation)

let test_mutation p seed run mutate expected () =
  Alcotest.(check (list string))
    "exactly the guarding checks fail" expected
    (failing (verdict_of p seed run mutate));
  (* the mutation worked on copies: the observation still passes *)
  Alcotest.(check (list string))
    "the unmutated observation stays green" []
    (failing (verdict_of p seed run (fun _ obs -> obs)))

let test_verdict_pure p seed run () =
  let same _ obs = obs in
  let v = verdict_of p seed run same in
  Alcotest.(check (list string)) "the unmutated observation is green" [] (failing v);
  Alcotest.(check bool) "the same observation, the same checks" true
    (v = verdict_of p seed run same);
  Alcotest.(check int) "the report counts every check"
    (Lazy.force run).Chaos.invariant_checks (List.length v)

(* at seed 42 both planned duplicate submits earn their dup ACK, so one
   turned into a fresh accept breaks the idempotency check alone *)
let test_fresh_accept () =
  Alcotest.(check bool) "both duplicate submits were ACKed as dups" true
    ((Lazy.force network_42).Chaos.observation.Chaos.tallies.Chaos.dup_acks >= 2);
  test_mutation Chaos.network 42 network_42 fresh_accept
    [ "net-idempotent-ack" ] ()

let test_network_fingerprint () =
  let fp seed = Chaos.schedule_fingerprint ~seed Chaos.network in
  Alcotest.(check string) "same seed, same fingerprint (network)" (fp 42)
    (fp 42);
  Alcotest.(check bool) "network faults feed the fingerprint" true
    (fp 42 <> Chaos.schedule_fingerprint ~seed:42 Chaos.standard);
  let p = Chaos.plan ~seed:42 Chaos.network in
  Alcotest.(check bool) "network plan carries net events" true
    (List.length p.Chaos.net_events
    >= Chaos.network.Chaos.net_garbage + Chaos.network.Chaos.net_dups)

let () =
  Alcotest.run "dg_chaos"
    [
      ( "plan",
        [
          Alcotest.test_case "fingerprint determinism" `Quick test_fingerprint;
          Alcotest.test_case "plan purity" `Quick test_plan_pure;
        ] );
      ( "invariants",
        Alcotest.test_case "checkers (unit)" `Quick test_invariant_checkers
        :: List.map QCheck_alcotest.to_alcotest [ prop_jobq_discipline ] );
      ( "scheduler",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sched_no_lost_or_dup;
            prop_sched_queue_order;
            prop_sched_budget;
            prop_sched_preempt_guard;
            prop_sched_dup_never_launches;
            prop_sched_cancel_wins;
            prop_sched_deterministic;
          ]
        @ [
            Alcotest.test_case "status reads the live probe" `Quick
              test_sched_live_status;
            Alcotest.test_case "SIGUSR1 dump" `Quick test_sched_status_dump;
          ] );
      ( "admission",
        Alcotest.test_case "read/invalid split" `Quick test_of_file_split
        :: List.map QCheck_alcotest.to_alcotest [ prop_admission_total ] );
      ( "readers",
        List.map QCheck_alcotest.to_alcotest
          [ prop_checkpoint_fuzz; prop_record_fuzz ] );
      ( "watchdog",
        [ Alcotest.test_case "detect, resume, exhaust, isolate" `Slow test_watchdog ] );
      ( "campaign",
        [
          Alcotest.test_case "fixed-seed smoke campaign" `Slow
            test_smoke_campaign;
          Alcotest.test_case "network fingerprint determinism" `Quick
            test_network_fingerprint;
          Alcotest.test_case "network campaign, seed 42" `Slow
            (test_network_campaign 42 network_42);
          Alcotest.test_case "network campaign, seed 7" `Slow
            (test_network_campaign 7 network_7);
        ] );
      ( "verdict",
        let smoke = test_mutation Chaos.smoke 42 smoke_42 in
        [
          Alcotest.test_case "pure, green on the smoke observation" `Slow
            (test_verdict_pure Chaos.smoke 42 smoke_42);
          Alcotest.test_case "pure, green on the network observation" `Slow
            (test_verdict_pure Chaos.network 42 network_42);
          Alcotest.test_case "a lost job" `Slow
            (smoke drop_terminal
               [ "classification"; "no-lost-or-duplicated-jobs" ]);
          Alcotest.test_case "a job that ended twice" `Slow
            (smoke dup_terminal [ "no-lost-or-duplicated-jobs" ]);
          Alcotest.test_case "one flipped checkpoint bit" `Slow
            (smoke flip_final [ "bit-exact-final-checkpoint" ]);
          Alcotest.test_case "two first starts swapped" `Slow
            (smoke swap_first_starts [ "queue-priority-fifo" ]);
          Alcotest.test_case "hangs the watchdog missed" `Slow
            (smoke zero_hangs [ "watchdog-caught-hangs" ]);
          Alcotest.test_case "a duplicate submit accepted as fresh" `Slow
            test_fresh_accept;
        ] );
    ]
