(* A parametrized simulation job: a named, prioritized Vm_app run with
   per-job resource limits and resilience knobs, parsed from a small JSON
   job file.  The engine owns scheduling; this module owns the translation
   from job description to [Vm_app.spec] / [Retry.policy] / [Faults.t]. *)

module Json = Dg_obs.Obs.Json
module Retry = Dg_resilience.Retry
module Faults = Dg_resilience.Faults
module Scenarios = Dg_scenarios.Scenarios
module App = Dg_app.Vm_app

type t = {
  id : string;
  scenario : string;
  priority : int;
  cells_x : int;
  cells_v : int;
  poly_order : int;
  tend : float;
  cfl : float;
  max_steps : int;
  max_wall : float option;
  checkpoint_every : int;
  keep_last : int option;
  check_every : int;
  max_retries : int;
  max_restores : int;
  crash_retries : int;
  hang_retries : int;
  positivity : [ `Off | `Detect | `Repair ];
  fault_nan_step : int option;
  fault_neg_step : int option;
  fault_crash_step : int option;
  fault_hang_step : int option;
  fault_hang_s : float;
  fault_ckpt_enospc : int;
  fault_ckpt_crash : Faults.crash option;
}

(* The job's grid / order / end time / cfl as registry knobs. *)
let knobs j =
  Scenarios.knobs ~cells_x:j.cells_x ~cells_v:j.cells_v
    ~poly_order:j.poly_order ~tend:j.tend ~cfl:j.cfl ()

let validate j =
  let fail fmt = Printf.ksprintf invalid_arg ("job %S: " ^^ fmt) j.id in
  if j.id = "" then invalid_arg "job: empty id";
  (* unknown scenario names are rejected here, at parse time, with the
     available list — not when the engine eventually schedules the job *)
  if Scenarios.find j.scenario = None then
    fail "unknown scenario %S (available: %s)" j.scenario
      (String.concat ", " Scenarios.names);
  String.iter
    (fun ch ->
      match ch with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> ()
      | c -> fail "id contains %C (use [A-Za-z0-9_.-])" c)
    j.id;
  Result.iter_error (fail "%s") (Scenarios.check_knobs (knobs j));
  if j.max_steps < 1 then fail "max_steps must be >= 1";
  (match j.max_wall with
  | Some w when not (Float.is_finite w && w > 0.0) ->
      fail "max_wall must be > 0"
  | _ -> ());
  if j.checkpoint_every < 0 then fail "checkpoint_every must be >= 0";
  (match j.keep_last with
  | Some k when k < 1 -> fail "keep_last must be >= 1"
  | _ -> ());
  if j.check_every < 1 then fail "check_every must be >= 1";
  if j.max_retries < 0 || j.max_restores < 0 || j.crash_retries < 0 then
    fail "retry budgets must be >= 0";
  if j.hang_retries < 0 then fail "hang_retries must be >= 0";
  if not (Float.is_finite j.fault_hang_s && j.fault_hang_s >= 0.0) then
    fail "fault_hang_s must be >= 0";
  if j.fault_ckpt_enospc < 0 then fail "fault_ckpt_enospc must be >= 0"

(* Grid, order and end time a job leaves out come from its scenario's
   registry entry, the resolution its goldens were set at.  An unknown
   scenario gets placeholders; [validate] then rejects it by name. *)
let registry_defaults scenario =
  match Scenarios.find scenario with
  | None -> (2, 2, 1, 1.0)
  | Some e ->
      let s = e.Scenarios.spec Scenarios.default_knobs in
      let c = s.Dg_app.Vm_app.cells in
      (c.(0), c.(s.Dg_app.Vm_app.cdim), s.Dg_app.Vm_app.poly_order,
       e.Scenarios.tend)

let make ?(priority = 0) ?cells_x ?cells_v ?poly_order ?tend ?(cfl = 0.9)
    ?(max_steps = 1_000_000) ?max_wall ?(checkpoint_every = 25)
    ?keep_last ?(check_every = 10) ?(max_retries = 8) ?(max_restores = 1)
    ?(crash_retries = 1) ?(hang_retries = 1) ?(positivity = `Off)
    ?fault_nan_step ?fault_neg_step ?fault_crash_step ?fault_hang_step
    ?(fault_hang_s = 2.0) ?(fault_ckpt_enospc = 0) ?fault_ckpt_crash ~id
    ~scenario () =
  let cx, cv, p, te = registry_defaults scenario in
  let cells_x = Option.value cells_x ~default:cx
  and cells_v = Option.value cells_v ~default:cv
  and poly_order = Option.value poly_order ~default:p
  and tend = Option.value tend ~default:te in
  let j =
    {
      id;
      scenario;
      priority;
      cells_x;
      cells_v;
      poly_order;
      tend;
      cfl;
      max_steps;
      max_wall;
      checkpoint_every;
      keep_last;
      check_every;
      max_retries;
      max_restores;
      crash_retries;
      hang_retries;
      positivity;
      fault_nan_step;
      fault_neg_step;
      fault_crash_step;
      fault_hang_step;
      fault_hang_s;
      fault_ckpt_enospc;
      fault_ckpt_crash;
    }
  in
  validate j;
  j

(* --- JSON: total, bound-checked admission decoder ------------------------- *)

(* Job files arrive from an unauthenticated spool directory, so the decoder
   is TOTAL over arbitrary [Json.t]: every field is type- and range-checked
   before use, unknown and duplicate fields are reported by name, and the
   only outcomes are [Ok job] or [Error reason] — arbitrary bytes can never
   raise out of admission.  The numeric caps are generous operational
   bounds (a 1024^2-cell p3 job is already far beyond one node), there to
   stop a hostile job from driving allocations or step counts to absurdity,
   not to police legitimate configurations. *)

(* internal early-exit; never escapes [of_json_result] *)
exception Reject of string

let reject fmt = Printf.ksprintf (fun m -> raise (Reject m)) fmt

let known_fields =
  [
    "id"; "scenario"; "priority"; "cells"; "p"; "tend"; "cfl"; "max_steps";
    "max_wall"; "checkpoint_every"; "keep_last"; "check_every";
    "max_retries"; "max_restores"; "crash_retries"; "hang_retries";
    "positivity"; "fault_nan_step"; "fault_neg_step"; "fault_crash_step";
    "fault_hang_step"; "fault_hang_s"; "fault_ckpt_enospc";
    "fault_ckpt_crash";
  ]

let of_json_result ?id json =
  try
    let kvs =
      match json with
      | Json.Obj kvs -> kvs
      | _ -> reject "job: expected a JSON object"
    in
    (* duplicate fields would make the effective value order-dependent *)
    let rec dup_scan seen = function
      | [] -> ()
      | (k, _) :: rest ->
          if List.mem k seen then reject "job: duplicate field %S" k
          else dup_scan (k :: seen) rest
    in
    dup_scan [] kvs;
    (match
       List.filter_map
         (fun (k, _) -> if List.mem k known_fields then None else Some k)
         kvs
     with
    | [] -> ()
    | unknown ->
        reject "job: unknown field%s: %s"
          (if List.length unknown = 1 then "" else "s")
          (String.concat ", " unknown));
    let field key = List.assoc_opt key kvs in
    let str key =
      match field key with
      | Some (Json.Str s) -> Some s
      | Some _ -> reject "job field %S must be a string" key
      | None -> None
    in
    let int_in key ~min ~max =
      match field key with
      | Some (Json.Int v) ->
          if v < min || v > max then
            reject "job field %S = %d out of range [%d, %d]" key v min max;
          Some v
      | Some _ -> reject "job field %S must be an integer" key
      | None -> None
    in
    let float_in key ~min ~max =
      let check v =
        if not (Float.is_finite v) then
          reject "job field %S must be finite" key;
        if v < min || v > max then
          reject "job field %S = %g out of range [%g, %g]" key v min max;
        Some v
      in
      match field key with
      | Some (Json.Float v) -> check v
      | Some (Json.Int v) -> check (float_of_int v)
      | Some _ -> reject "job field %S must be a number" key
      | None -> None
    in
    let scenario =
      match str "scenario" with
      | Some s -> s
      | None -> reject "job: missing \"scenario\""
    in
    let id =
      match str "id" with
      | Some s -> s
      | None -> (
          match id with
          | Some s -> s
          | None -> reject "job: missing \"id\"")
    in
    if String.length id > 128 then reject "job: id longer than 128 bytes";
    if String.length scenario > 128 then
      reject "job: scenario name longer than 128 bytes";
    let cells_x, cells_v =
      let cap n =
        match n with
        | Json.Int v when v >= 2 && v <= 1024 -> v
        | Json.Int v -> reject "job field \"cells\" = %d out of range [2, 1024]" v
        | _ -> reject "job field \"cells\" must be [nx, nv]"
      in
      match field "cells" with
      | Some (Json.List [ x; v ]) -> (Some (cap x), Some (cap v))
      | Some _ -> reject "job field \"cells\" must be [nx, nv]"
      | None -> (None, None)
    in
    let positivity =
      match str "positivity" with
      | Some "off" | None -> None
      | Some "detect" -> Some `Detect
      | Some "repair" -> Some `Repair
      | Some s ->
          reject "job field \"positivity\" = %S (use off | detect | repair)" s
    in
    let fault_ckpt_crash =
      match field "fault_ckpt_crash" with
      | Some (Json.Str "before-rename") -> Some Faults.Crash_before_rename
      | Some (Json.Int k) when k >= 0 && k <= 1_000_000_000 ->
          Some (Faults.Crash_truncate k)
      | Some _ ->
          reject
            "job field \"fault_ckpt_crash\" must be \"before-rename\" or a \
             byte count to truncate the tmp file to"
      | None -> None
    in
    let j =
      make ~id ~scenario
        ?priority:(int_in "priority" ~min:(-1000) ~max:1000)
        ?cells_x ?cells_v
        ?poly_order:(int_in "p" ~min:1 ~max:3)
        ?tend:(float_in "tend" ~min:1e-9 ~max:1e4)
        ?cfl:(float_in "cfl" ~min:1e-6 ~max:1.0)
        ?max_steps:(int_in "max_steps" ~min:1 ~max:1_000_000_000)
        ?max_wall:(float_in "max_wall" ~min:1e-3 ~max:1e7)
        ?checkpoint_every:(int_in "checkpoint_every" ~min:0 ~max:1_000_000)
        ?keep_last:(int_in "keep_last" ~min:1 ~max:1_000_000)
        ?check_every:(int_in "check_every" ~min:1 ~max:1_000_000)
        ?max_retries:(int_in "max_retries" ~min:0 ~max:1_000_000)
        ?max_restores:(int_in "max_restores" ~min:0 ~max:1_000_000)
        ?crash_retries:(int_in "crash_retries" ~min:0 ~max:1000)
        ?hang_retries:(int_in "hang_retries" ~min:0 ~max:1000)
        ?positivity
        ?fault_nan_step:(int_in "fault_nan_step" ~min:0 ~max:1_000_000_000)
        ?fault_neg_step:(int_in "fault_neg_step" ~min:0 ~max:1_000_000_000)
        ?fault_crash_step:(int_in "fault_crash_step" ~min:0 ~max:1_000_000_000)
        ?fault_hang_step:(int_in "fault_hang_step" ~min:0 ~max:1_000_000_000)
        ?fault_hang_s:(float_in "fault_hang_s" ~min:0.0 ~max:3600.0)
        ?fault_ckpt_enospc:(int_in "fault_ckpt_enospc" ~min:0 ~max:1_000_000)
        ?fault_ckpt_crash ()
    in
    Ok j
  with
  | Reject m -> Error m
  | Invalid_argument m -> Error m (* [validate]'s verdict, same wording *)

let of_string_result ?id s =
  match Json.parse s with
  | json -> of_json_result ?id json
  | exception Json.Parse_error m -> Error ("job: JSON parse error: " ^ m)
  | exception Stack_overflow -> Error "job: JSON nesting too deep"

let of_string ?id s =
  match of_string_result ?id s with
  | Ok j -> j
  | Error m -> (
      (* preserve the historical contract: syntax errors surface as
         [Json.Parse_error], semantic ones as [Invalid_argument] *)
      match Json.parse s with
      | _ -> invalid_arg m
      | exception (Json.Parse_error _ as e) -> raise e)

(* Byte cap on spool files: a job description is a page of JSON; anything
   bigger is garbage (or an attack on the parser) and is rejected before a
   byte of it is parsed. *)
let max_file_bytes = 65536

(* Read + parse one spool file without ever raising, separating transient
   read failures (retry later: the writer may still be mid-copy, the file
   may have been renamed away by a concurrent actor) from definitive
   parse/validate failures (reject now). *)
let of_file_result path =
  let base = Filename.remove_extension (Filename.basename path) in
  match open_in_bin path with
  | exception Sys_error m -> Error (`Read m)
  | ic -> (
      let res =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            match in_channel_length ic with
            | exception Sys_error m -> Error (`Read m)
            | n when n > max_file_bytes ->
                Error
                  (`Invalid
                     (Printf.sprintf
                        "job file is %d bytes (cap: %d) — not a job \
                         description"
                        n max_file_bytes))
            | n -> (
                match really_input_string ic n with
                | s -> Ok s
                | exception End_of_file ->
                    Error (`Read "file shrank while reading")
                | exception Sys_error m -> Error (`Read m)))
      in
      match res with
      | Error _ as e -> e
      | Ok s -> (
          match of_string_result ~id:base s with
          | Ok j -> Ok j
          | Error m -> Error (`Invalid m)))

(* A job file for [vmdg serve] / [vmdg submit]: one job object, a bare
   JSON list of job objects, or [{"jobs": [...]}].  Unnamed jobs take the
   file's basename (one job) or [<basename>-<position>] (a list) as id.
   Total, like [of_json_result]: a failure names the job it is about. *)
let load_file path =
  let base = Filename.remove_extension (Filename.basename path) in
  let decode ~id item =
    match of_json_result ~id item with
    | Ok j -> Ok j
    | Error m ->
        let name =
          match item with
          | Json.Obj kvs -> (
              match List.assoc_opt "id" kvs with Some (Json.Str s) -> s | _ -> id)
          | _ -> id
        in
        Error (Printf.sprintf "job %s: %s" name m)
  in
  let rec decode_all i acc = function
    | [] -> Ok (List.rev acc)
    | item :: rest ->
        Result.bind
          (decode ~id:(Printf.sprintf "%s-%d" base i) item)
          (fun j -> decode_all (i + 1) (j :: acc) rest)
  in
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | exception Sys_error m -> Error m
  | exception Json.Parse_error m -> Error ("JSON parse error: " ^ m)
  | exception Stack_overflow -> Error "JSON nesting too deep"
  | Json.List items -> decode_all 0 [] items
  | Json.Obj kvs when List.mem_assoc "jobs" kvs -> (
      match List.assoc "jobs" kvs with
      | Json.List items -> decode_all 0 [] items
      | _ -> Error "job manifest: \"jobs\" must be a list")
  | json -> Result.map (fun j -> [ j ]) (decode ~id:base json)

let to_json j =
  Json.Obj
    ([
       ("id", Json.Str j.id);
       ("scenario", Json.Str j.scenario);
       ("priority", Json.Int j.priority);
       ("cells", Json.List [ Json.Int j.cells_x; Json.Int j.cells_v ]);
       ("p", Json.Int j.poly_order);
       ("tend", Json.Float j.tend);
       ("max_steps", Json.Int j.max_steps);
     ]
    @ (match j.max_wall with
      | Some w -> [ ("max_wall", Json.Float w) ]
      | None -> [])
    @ List.filter_map
        (fun (key, v) -> Option.map (fun k -> (key, Json.Int k)) v)
        [
          ("fault_nan_step", j.fault_nan_step);
          ("fault_neg_step", j.fault_neg_step);
          ("fault_crash_step", j.fault_crash_step);
          ("fault_hang_step", j.fault_hang_step);
        ])

(* Full round-trippable encoding, for shipping a job over the gate
   socket: every field [of_json_result] understands, so
   [of_json_result (to_json_full j) = Ok j] (asserted by test_gate). *)
let to_json_full j =
  Json.Obj
    ([
       ("id", Json.Str j.id);
       ("scenario", Json.Str j.scenario);
       ("priority", Json.Int j.priority);
       ("cells", Json.List [ Json.Int j.cells_x; Json.Int j.cells_v ]);
       ("p", Json.Int j.poly_order);
       ("tend", Json.Float j.tend);
       ("cfl", Json.Float j.cfl);
       ("max_steps", Json.Int j.max_steps);
       ("checkpoint_every", Json.Int j.checkpoint_every);
       ("check_every", Json.Int j.check_every);
       ("max_retries", Json.Int j.max_retries);
       ("max_restores", Json.Int j.max_restores);
       ("crash_retries", Json.Int j.crash_retries);
       ("hang_retries", Json.Int j.hang_retries);
       ( "positivity",
         Json.Str
           (match j.positivity with
           | `Off -> "off"
           | `Detect -> "detect"
           | `Repair -> "repair") );
       ("fault_hang_s", Json.Float j.fault_hang_s);
       ("fault_ckpt_enospc", Json.Int j.fault_ckpt_enospc);
     ]
    @ (match j.max_wall with
      | Some w -> [ ("max_wall", Json.Float w) ]
      | None -> [])
    @ (match j.keep_last with
      | Some k -> [ ("keep_last", Json.Int k) ]
      | None -> [])
    @ List.filter_map
        (fun (key, v) -> Option.map (fun k -> (key, Json.Int k)) v)
        [
          ("fault_nan_step", j.fault_nan_step);
          ("fault_neg_step", j.fault_neg_step);
          ("fault_crash_step", j.fault_crash_step);
          ("fault_hang_step", j.fault_hang_step);
        ]
    @
    match j.fault_ckpt_crash with
    | Some Faults.Crash_before_rename ->
        [ ("fault_ckpt_crash", Json.Str "before-rename") ]
    | Some (Faults.Crash_truncate k) -> [ ("fault_ckpt_crash", Json.Int k) ]
    | None -> [])

(* --- translation to the app layer ----------------------------------------- *)

(* The spec comes from the scenario registry: one source of truth shared
   with the CLI, the test suite, and the bench driver. *)
let spec j = (Scenarios.find_exn j.scenario).Scenarios.spec (knobs j)

let policy j =
  {
    Retry.default with
    Retry.check_every = j.check_every;
    max_retries = j.max_retries;
    max_restores = j.max_restores;
  }

(* Arm the state bombs (NaN / negative overshoot) only while the job has
   not yet stepped past them: a preempted-and-resumed slice that restarts
   below the bomb step re-arms (the fault has not happened yet in the job's
   life), while a crash-retry that resumes past it does not re-fire a fault
   the ladder already paid for.  Process-level bombs cannot use the step
   counter that way — a crash bomb's own retry resumes BELOW the bomb step
   and would re-fire forever — so they are additionally gated on
   engine-known lifetime counters: the crash bomb arms only while the job
   has never crashed, the hang bomb only while it has never hung, and the
   checkpoint-write bombs (ENOSPC burst, crash-before-rename/truncate) only
   on the job's first slice.  Within one slice, [Faults.t] is one-shot as
   usual. *)
let faults ?(slice = 1) ?(crashes = 0) ?(hangs = 0) j ~steps_done =
  let f = Faults.none () in
  (match j.fault_nan_step with
  | Some k when steps_done < k -> f.Faults.nan_step <- Some k
  | _ -> ());
  (match j.fault_neg_step with
  | Some k when steps_done < k -> f.Faults.neg_step <- Some k
  | _ -> ());
  (match j.fault_crash_step with
  | Some k when crashes = 0 && steps_done < k -> f.Faults.crash_step <- Some k
  | _ -> ());
  (match j.fault_hang_step with
  | Some k when hangs = 0 && steps_done < k ->
      f.Faults.hang_step <- Some k;
      f.Faults.hang_s <- j.fault_hang_s
  | _ -> ());
  if slice = 1 then begin
    f.Faults.ckpt_enospc <- j.fault_ckpt_enospc;
    f.Faults.ckpt_crash <- j.fault_ckpt_crash
  end;
  f

(* One run body for every caller (an engine slice, a chaos reference run):
   the resilient loop under the job's knobs, and a final checkpoint when
   the run was not stopped — a completed job's result artifact, what the
   bit-exactness checks compare. *)
let run ?faults ?supervisor ?on_step j app ~dir =
  let stats =
    App.run_resilient app ~policy:(policy j) ?faults ~positivity:j.positivity
      ?supervisor ~checkpoint_every:j.checkpoint_every ~checkpoint_dir:dir
      ?keep_last:j.keep_last ~max_steps:j.max_steps ?on_step ~tend:j.tend
  in
  if stats.Retry.stopped = None then ignore (App.checkpoint app ~dir);
  stats
