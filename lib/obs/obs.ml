(* dg_obs: the observability subsystem — hierarchical tracing spans,
   monotonic counters and gauges, GC/memory sampling, and sinks (an
   in-memory aggregator plus a JSONL event stream with a run manifest).

   Design constraints, in order:

   1. Disabled must be free.  Every recording entry point first reads one
      global boolean; when tracing is off the hot path pays exactly that
      branch (callers that would need to *build* an argument — a span
      name, a count — are expected to precompute it or guard on
      [enabled] themselves).

   2. Domain-safe without hot-path locks.  All state is accumulated into
      per-domain local buffers (Domain.DLS); a global mutex-protected
      registry only tracks the buffers themselves.  Short-lived worker
      domains (the job server spawns one per job slice) call
      [drain_local] before exiting, merging their buffer into a retired
      aggregate.  [span_stats] / [counters] merge retired + live.

   3. Spans nest.  A span key is the "/"-joined path of enclosing span
      names in the recording domain, so one aggregation table yields the
      whole call tree.  [add_time] lets hand-rolled phase timers (the
      fused Vlasov sweep times volume/surface/fill_alpha without
      entering a span per cell) file pre-aggregated time under the
      current path. *)

let enabled_flag = ref false
let enable () = enabled_flag := true
let disable () = enabled_flag := false
let enabled () = !enabled_flag
let now () = Unix.gettimeofday ()

(* --- per-domain local buffers -------------------------------------------- *)

type sstat = {
  mutable s_count : int;
  mutable s_total : float; (* seconds *)
  mutable s_max : float;
}

type local = {
  mutable path : string; (* "/"-joined names of the open spans *)
  mutable registered : bool;
  spans : (string, sstat) Hashtbl.t;
  counters : (string, float ref) Hashtbl.t;
  gauges : (string, float) Hashtbl.t;
}

let fresh_local () =
  {
    path = "";
    registered = false;
    spans = Hashtbl.create 32;
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
  }

let registry_lock = Mutex.create ()
let live : local list ref = ref []
let retired = fresh_local ()

let dls_key = Domain.DLS.new_key fresh_local

(* The current domain's buffer, registered on first use (and re-registered
   after a [drain_local], so a drained-then-reused domain keeps working). *)
let local () =
  let l = Domain.DLS.get dls_key in
  if not l.registered then begin
    Mutex.protect registry_lock (fun () ->
        if not l.registered then begin
          l.registered <- true;
          live := l :: !live
        end)
  end;
  l

(* Merge [src] into [dst] (dst grows; src is left untouched). *)
let merge_into dst src =
  Hashtbl.iter
    (fun name st ->
      match Hashtbl.find_opt dst.spans name with
      | Some d ->
          d.s_count <- d.s_count + st.s_count;
          d.s_total <- d.s_total +. st.s_total;
          if st.s_max > d.s_max then d.s_max <- st.s_max
      | None ->
          Hashtbl.add dst.spans name
            { s_count = st.s_count; s_total = st.s_total; s_max = st.s_max })
    src.spans;
  Hashtbl.iter
    (fun name v ->
      match Hashtbl.find_opt dst.counters name with
      | Some r -> r := !r +. !v
      | None -> Hashtbl.add dst.counters name (ref !v))
    src.counters;
  Hashtbl.iter (fun name v -> Hashtbl.replace dst.gauges name v) src.gauges

let clear_local l =
  Hashtbl.reset l.spans;
  Hashtbl.reset l.counters;
  Hashtbl.reset l.gauges

(* Merge this domain's buffer into the retired aggregate and unregister it.
   For worker domains about to exit; never needed on the main domain. *)
let drain_local () =
  let l = Domain.DLS.get dls_key in
  if l.registered then
    Mutex.protect registry_lock (fun () ->
        merge_into retired l;
        clear_local l;
        l.registered <- false;
        live := List.filter (fun x -> x != l) !live)

(* --- recording ------------------------------------------------------------ *)

let record_span l path dt =
  match Hashtbl.find_opt l.spans path with
  | Some st ->
      st.s_count <- st.s_count + 1;
      st.s_total <- st.s_total +. dt;
      if dt > st.s_max then st.s_max <- dt
  | None -> Hashtbl.add l.spans path { s_count = 1; s_total = dt; s_max = dt }

let span name f =
  if not !enabled_flag then f ()
  else begin
    let l = local () in
    let parent = l.path in
    let path = if parent = "" then name else parent ^ "/" ^ name in
    l.path <- path;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let dt = now () -. t0 in
        record_span l path dt;
        l.path <- parent)
      f
  end

let add_time name ~seconds ~count =
  if !enabled_flag then begin
    let l = local () in
    let path = if l.path = "" then name else l.path ^ "/" ^ name in
    match Hashtbl.find_opt l.spans path with
    | Some st ->
        st.s_count <- st.s_count + count;
        st.s_total <- st.s_total +. seconds;
        if seconds > st.s_max then st.s_max <- seconds
    | None ->
        Hashtbl.add l.spans path
          { s_count = count; s_total = seconds; s_max = seconds }
  end

let add name x =
  if !enabled_flag then begin
    let l = local () in
    match Hashtbl.find_opt l.counters name with
    | Some r -> r := !r +. x
    | None -> Hashtbl.add l.counters name (ref x)
  end

let count name n = if !enabled_flag then add name (float_of_int n)
let gauge name x = if !enabled_flag then Hashtbl.replace (local ()).gauges name x

(* --- the in-memory aggregator (merged view) ------------------------------- *)

type span_stat = {
  sp_name : string;
  sp_count : int;
  sp_total : float; (* seconds *)
  sp_max : float;
}

let merged () =
  Mutex.protect registry_lock (fun () ->
      let acc = fresh_local () in
      merge_into acc retired;
      List.iter (fun l -> merge_into acc l) !live;
      acc)

let span_stats () =
  let acc = merged () in
  Hashtbl.fold
    (fun name st l ->
      { sp_name = name; sp_count = st.s_count; sp_total = st.s_total; sp_max = st.s_max }
      :: l)
    acc.spans []
  |> List.sort (fun a b -> compare a.sp_name b.sp_name)

let find_span name =
  List.find_opt (fun s -> s.sp_name = name) (span_stats ())

let counters () =
  let acc = merged () in
  Hashtbl.fold (fun name r l -> (name, !r) :: l) acc.counters []
  |> List.sort compare

let counter_value name =
  match List.assoc_opt name (counters ()) with Some v -> v | None -> 0.0

let gauges () =
  let acc = merged () in
  Hashtbl.fold (fun name v l -> (name, v) :: l) acc.gauges []
  |> List.sort compare

let reset () =
  Mutex.protect registry_lock (fun () ->
      clear_local retired;
      List.iter clear_local !live)

(* --- GC / memory sampling ------------------------------------------------- *)

type gc_sample = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;
}

let gc_sample () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    major_words = s.Gc.major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    compactions = s.Gc.compactions;
    heap_words = s.Gc.heap_words;
  }

let gc_delta ~before ~after =
  {
    minor_words = after.minor_words -. before.minor_words;
    promoted_words = after.promoted_words -. before.promoted_words;
    major_words = after.major_words -. before.major_words;
    minor_collections = after.minor_collections - before.minor_collections;
    major_collections = after.major_collections - before.major_collections;
    compactions = after.compactions - before.compactions;
    heap_words = after.heap_words;
  }

(* --- minimal JSON ---------------------------------------------------------- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let rec write b = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f ->
        if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
        else Buffer.add_string b "null"
    | Str s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | List l ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            write b v)
          l;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            write b (Str k);
            Buffer.add_char b ':';
            write b v)
          kvs;
        Buffer.add_char b '}'

  let to_string v =
    let b = Buffer.create 256 in
    write b v;
    Buffer.contents b

  (* Recursive-descent parser for the subset above (all of JSON except
     exotic number forms; enough to round-trip every emitted record). *)
  exception Parse_error of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
    (* a value position holding something no JSON value starts with *)
    let not_json () =
      fail (Printf.sprintf "not JSON: unexpected %C" s.[!pos])
    in
    let skip_ws () =
      while
        !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal lit v =
      let l = String.length lit in
      if !pos + l <= n && String.sub s !pos l = lit then begin
        pos := !pos + l;
        v
      end
      else not_json ()
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            if !pos >= n then fail "bad escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                if !pos + 4 >= n then fail "bad \\u escape";
                let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
                pos := !pos + 4;
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
            | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
            incr pos;
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let is_num c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num s.[!pos] do
        incr pos
      done;
      let str = String.sub s start (!pos - start) in
      match int_of_string_opt str with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt str with
          | Some f -> Float f
          | None -> fail ("bad number " ^ str))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  members ((k, v) :: acc)
              | Some '}' ->
                  incr pos;
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (members [])
          end
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            List []
          end
          else begin
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  elems (v :: acc)
              | Some ']' ->
                  incr pos;
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            List (elems [])
          end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some _ -> not_json ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  (* accessors *)
  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

  let to_float = function
    | Some (Float f) -> f
    | Some (Int i) -> float_of_int i
    | _ -> Float.nan

  let to_int = function Some (Int i) -> i | Some (Float f) -> int_of_float f | _ -> 0
  let to_str = function Some (Str s) -> s | _ -> ""
end

(* --- serialized views of the aggregator ----------------------------------- *)

let spans_json () =
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [
             ("name", Json.Str s.sp_name);
             ("count", Json.Int s.sp_count);
             ("total_s", Json.Float s.sp_total);
             ("max_s", Json.Float s.sp_max);
           ])
       (span_stats ()))

let counters_json () =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (counters ()))

let gauges_json () =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (gauges ()))

let gc_json (d : gc_sample) =
  Json.Obj
    [
      ("minor_words", Json.Float d.minor_words);
      ("promoted_words", Json.Float d.promoted_words);
      ("major_words", Json.Float d.major_words);
      ("minor_collections", Json.Int d.minor_collections);
      ("major_collections", Json.Int d.major_collections);
      ("compactions", Json.Int d.compactions);
      ("heap_words", Json.Int d.heap_words);
    ]

(* --- run identity (manifest fields) --------------------------------------- *)

let hostname () = try Unix.gethostname () with _ -> "unknown"

let iso_time t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let git_describe () =
  try
    let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown")
  with _ -> "unknown"

let default_manifest () =
  let t = Unix.time () in
  [
    ("hostname", Json.Str (hostname ()));
    ("timestamp", Json.Float t);
    ("date", Json.Str (iso_time t));
    ("git", Json.Str (git_describe ()));
    ("ocaml", Json.Str Sys.ocaml_version);
    ("word_size", Json.Int Sys.word_size);
  ]

(* --- JSONL sink ------------------------------------------------------------ *)

module Sink = struct
  type t = { oc : out_channel; lock : Mutex.t; mutable closed : bool }

  let write_line t line =
    Mutex.protect t.lock (fun () ->
        if not t.closed then begin
          output_string t.oc line;
          output_char t.oc '\n';
          flush t.oc
        end)

  let event t ~kind fields =
    write_line t (Json.to_string (Json.Obj (("kind", Json.Str kind) :: fields)))

  let create ?(manifest = []) ?(append = false) path =
    (* [append] lets long-lived streams (a job server's status file)
       accumulate across process restarts: each restart contributes a
       fresh manifest record followed by its events *)
    let oc =
      if append then open_out_gen [ Open_append; Open_creat ] 0o644 path
      else open_out path
    in
    let t = { oc; lock = Mutex.create (); closed = false } in
    event t ~kind:"manifest" (default_manifest () @ manifest);
    t

  let close t =
    Mutex.protect t.lock (fun () ->
        if not t.closed then begin
          t.closed <- true;
          close_out t.oc
        end)
end

let read_jsonl path =
  In_channel.with_open_text path (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | Some line ->
            go (if String.trim line = "" then acc else Json.parse line :: acc)
        | None -> List.rev acc
      in
      go [])

(* --- trace report: pretty-print a JSONL trace as a per-span table ---------- *)

module Report = struct
  type row = { mutable r_count : int; mutable r_total : float; mutable r_max : float }

  (* Aggregate all span records of all "step" (and "summary") events.
     Counter objects are summed across every record that carries one —
     each step record holds only its own step's deltas (the aggregator is
     reset per record), so the sum is the run total.  This is where
     resilience/watchdog/admission/chaos counts become visible in
     trace-report without any extra plumbing. *)
  let aggregate records =
    let rows : (string, row) Hashtbl.t = Hashtbl.create 64 in
    let counters : (string, float ref) Hashtbl.t = Hashtbl.create 16 in
    (* gauges are last-write-wins: records are in file (= time) order, so
       [Hashtbl.replace] per record leaves the final value *)
    let gauges : (string, float) Hashtbl.t = Hashtbl.create 8 in
    let steps = ref 0 and wall = ref 0.0 in
    let manifest = ref None in
    let add_counters r =
      (match Json.member "counters" r with
      | Some (Json.Obj kvs) ->
          List.iter
            (fun (k, v) ->
              let x = Json.to_float (Some v) in
              match Hashtbl.find_opt counters k with
              | Some acc -> acc := !acc +. x
              | None -> Hashtbl.add counters k (ref x))
            kvs
      | _ -> ());
      match Json.member "gauges" r with
      | Some (Json.Obj kvs) ->
          List.iter
            (fun (k, v) -> Hashtbl.replace gauges k (Json.to_float (Some v)))
            kvs
      | _ -> ()
    in
    List.iter
      (fun r ->
        match Json.member "kind" r with
        | Some (Json.Str "manifest") -> manifest := Some r
        | Some (Json.Str "step") ->
            incr steps;
            wall := !wall +. Json.to_float (Json.member "wall_s" r);
            add_counters r;
            let spans =
              match Json.member "spans" r with Some (Json.List l) -> l | _ -> []
            in
            List.iter
              (fun sp ->
                let name = Json.to_str (Json.member "name" sp) in
                let count = Json.to_int (Json.member "count" sp) in
                let total = Json.to_float (Json.member "total_s" sp) in
                let mx = Json.to_float (Json.member "max_s" sp) in
                match Hashtbl.find_opt rows name with
                | Some row ->
                    row.r_count <- row.r_count + count;
                    row.r_total <- row.r_total +. total;
                    if mx > row.r_max then row.r_max <- mx
                | None ->
                    Hashtbl.add rows name
                      { r_count = count; r_total = total; r_max = mx })
              spans
        | Some (Json.Str _) -> add_counters r
        | _ -> ())
      records;
    (rows, counters, gauges, !steps, !wall, !manifest)

  let print ?(out = stdout) path =
    let pr fmt = Printf.fprintf out fmt in
    let records = read_jsonl path in
    let rows, counters, gauges, steps, wall, manifest = aggregate records in
    (match manifest with
    | Some (Json.Obj kvs) ->
        pr "run manifest:\n";
        List.iter
          (fun (k, v) ->
            if k <> "kind" then pr "  %-18s %s\n" k (Json.to_string v))
          kvs
    | _ -> ());
    pr "\n%d step records, %.3f s total wall time\n\n" steps wall;
    let all =
      Hashtbl.fold (fun name row acc -> (name, row) :: acc) rows []
      |> List.sort compare
    in
    pr "%-44s %10s %12s %12s %12s %7s\n" "span" "count" "total s" "mean us"
      "max us" "% wall";
    List.iter
      (fun (name, row) ->
        (* indent nested spans by path depth *)
        let depth =
          String.fold_left (fun a c -> if c = '/' then a + 1 else a) 0 name
        in
        let label = String.make (2 * depth) ' ' ^ name in
        pr "%-44s %10d %12.4f %12.1f %12.1f %7.1f\n" label row.r_count
          row.r_total
          (1e6 *. row.r_total /. float_of_int (max 1 row.r_count))
          (1e6 *. row.r_max)
          (100.0 *. row.r_total /. Float.max 1e-12 wall))
      all;
    let counts =
      Hashtbl.fold (fun name acc l -> (name, !acc) :: l) counters []
      |> List.sort compare
    in
    if counts <> [] then begin
      pr "\n%-44s %14s\n" "counter" "total";
      List.iter
        (fun (name, v) ->
          if Float.is_integer v then pr "%-44s %14.0f\n" name v
          else pr "%-44s %14.3f\n" name v)
        counts
    end;
    let gauge_rows =
      Hashtbl.fold (fun name v l -> (name, v) :: l) gauges [] |> List.sort compare
    in
    if gauge_rows <> [] then begin
      pr "\n%-44s %14s\n" "gauge" "last";
      List.iter
        (fun (name, v) ->
          if Float.is_integer v then pr "%-44s %14.0f\n" name v
          else pr "%-44s %14.3f\n" name v)
        gauge_rows
    end;
    (* accounting: top-level spans vs measured wall time *)
    let top =
      List.fold_left
        (fun acc (name, row) ->
          if String.contains name '/' then acc else acc +. row.r_total)
        0.0 all
    in
    if wall > 0.0 then
      pr "\ntop-level spans account for %.1f%% of measured wall time\n"
        (100.0 *. top /. wall);
    top /. Float.max 1e-12 wall
end
