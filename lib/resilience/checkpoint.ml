(* Crash-consistent checkpoint sets, and the one owner of their on-disk
   format (the role ADIOS plays in Gkeyll).  One checkpoint file packs the
   whole evolved state (every species' distribution plus the EM field)
   with the step/time it was taken at, and is made torn-write-proof by the
   classic recipe:

     encode header, fields and checksum trailer into one buffer
     write it to ckpt_<step>.vmdg.tmp.<domain> in one output, fsync
     atomically rename to ckpt_<step>.vmdg
     update the human-readable `latest` pointer (same tmp+rename dance)

   A process killed at ANY point leaves either (a) a stale tmp file, which
   restart ignores, or (b) a fully valid checkpoint.  Restart scans the
   directory for the newest checkpoint whose checksum verifies, so even a
   checkpoint corrupted after the fact (bit rot, partial copy) only costs
   one checkpoint interval, never the run.

   The layout, big-endian throughout (ints are 4 bytes, floats 8):

     header   magic "VDGC", version (1), field count, step; time
     field*   magic "VDG\"", version (1), flag word (always 0), ndim,
              cells[ndim], ncomp, nghost; lower[ndim], upper[ndim],
              the coefficient array padded by nghost ghost layers in
              every dimension (a phase-space field stores no velocity
              ghosts; its record carries +0 there, what those ghosts
              would hold under the zero-flux Zero condition)
     trailer  FNV-1a 64 of every byte before it

   Field records of the retired v0 format (magic "VDG!", no version word)
   and records with a non-zero flag word are refused with a clean
   [Failure]. *)

module Grid = Dg_grid.Grid
module Field = Dg_grid.Field
module Obs = Dg_obs.Obs

let magic = 0x56444743 (* "VDGC" *)
let field_magic = 0x56444722 (* "VDG\"" *)
let field_magic_v0 = 0x56444721 (* "VDG!" *)
let version = 1
let header_bytes = (4 * 4) + 8
let filename ~step = Printf.sprintf "ckpt_%09d.vmdg" step
let latest_name = "latest"

type info = { path : string; step : int; time : float }

(* --- codec ------------------------------------------------------------------ *)

(* FNV-1a over b.[0 .. len-1]. *)
let fnv64 (b : Bytes.t) len =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.get b i)))) prime
  done;
  !h

(* A record pads every dimension by the field's widest ghost width. *)
let field_bytes f =
  let g = Field.grid f and nghost = Field.nghost f in
  let ndim = Grid.ndim g in
  let floats =
    Array.fold_left (fun n c -> n * (c + (2 * nghost))) (Field.ncomp f)
      (Grid.cells g)
  in
  (4 * (6 + ndim)) + (8 * ((2 * ndim) + floats))

let encode ~step ~time fields =
  let n = List.fold_left (fun n f -> n + field_bytes f) (header_bytes + 8) fields in
  let b = Bytes.create n in
  let pos = ref 0 in
  let int v =
    Bytes.set_int32_be b !pos (Int32.of_int v);
    pos := !pos + 4
  in
  let float v =
    Bytes.set_int64_be b !pos (Int64.bits_of_float v);
    pos := !pos + 8
  in
  int magic;
  int version;
  int (List.length fields);
  int step;
  float time;
  List.iter
    (fun f ->
      let g = Field.grid f in
      int field_magic;
      int version;
      int 0 (* flag word *);
      int (Grid.ndim g);
      Array.iter int (Grid.cells g);
      int (Field.ncomp f);
      let nghost = Field.nghost f in
      int nghost;
      Array.iter float (Grid.lower g);
      Array.iter float (Grid.upper g);
      Field.iter_padded f ~nghost float)
    fields;
  Bytes.set_int64_be b !pos (fnv64 b !pos);
  b

(* The checksum is verified first, but a hostile file can carry a valid
   one, so every header word is still range-checked BEFORE any allocation
   it sizes, and the implied coefficient count is checked against the
   bytes left: a garbage header must produce a clean [Failure], never an
   out-of-memory allocation, an [Invalid_argument] from grid construction,
   or a silently short read. *)
let decode s =
  let n = String.length s in
  if n < header_bytes + 8 then failwith "Checkpoint: truncated file";
  let body = n - 8 in
  if
    not
      (Int64.equal
         (fnv64 (Bytes.unsafe_of_string s) body)
         (String.get_int64_be s body))
  then failwith "Checkpoint: checksum mismatch (corrupt or truncated)";
  let pos = ref 0 in
  let take k =
    let p = !pos in
    if p + k > body then failwith "Checkpoint: truncated file";
    pos := p + k;
    p
  in
  let int () = Int32.to_int (String.get_int32_be s (take 4)) in
  let float () = Int64.float_of_bits (String.get_int64_be s (take 8)) in
  let fail fmt = Printf.ksprintf failwith ("Checkpoint: " ^^ fmt) in
  let field () =
    let m = int () in
    if m = field_magic_v0 then
      fail "v0 field record (magic 0x%x) is no longer read" field_magic_v0;
    if m <> field_magic then fail "bad field magic 0x%x" m;
    let v = int () in
    if v <> version then
      fail "unsupported field version %d (this build reads <= %d)" v version;
    let flag = int () in
    if flag <> 0 then fail "unsupported flag word %d" flag;
    let ndim = int () in
    if ndim < 1 || ndim > 16 then fail "implausible ndim %d" ndim;
    let cells = Array.init ndim (fun _ -> int ()) in
    Array.iter
      (fun c -> if c < 1 || c > 1 lsl 20 then fail "implausible cell count %d" c)
      cells;
    let ncomp = int () in
    if ncomp < 1 || ncomp > 65536 then fail "implausible ncomp %d" ncomp;
    let nghost = int () in
    if nghost < 0 || nghost > 16 then fail "implausible nghost %d" nghost;
    let lower = Array.init ndim (fun _ -> float ()) in
    let upper = Array.init ndim (fun _ -> float ()) in
    Array.iteri
      (fun d lo ->
        if not (Float.is_finite lo && Float.is_finite upper.(d) && lo < upper.(d))
        then fail "implausible domain bounds")
      lower;
    (* computed in float so a hostile header cannot overflow the check *)
    let implied =
      Array.fold_left
        (fun acc c -> acc *. float_of_int (c + (2 * nghost)))
        (float_of_int ncomp) cells
    in
    if implied > float_of_int (body - !pos) /. 8.0 then
      fail "truncated file (header larger than payload)";
    let f =
      try Field.create ~nghost (Grid.make ~cells ~lower ~upper) ~ncomp
      with Invalid_argument m -> fail "invalid field header: %s" m
    in
    let d = Field.data f in
    for i = 0 to Array.length d - 1 do
      d.(i) <- float ()
    done;
    f
  in
  let m = int () in
  if m <> magic then fail "bad magic 0x%x" m;
  let v = int () in
  if v <> version then
    fail "unsupported version %d (this build reads <= %d)" v version;
  let nfields = int () in
  if nfields < 1 || nfields > 65536 then fail "implausible field count %d" nfields;
  let step = int () in
  if step < 0 then fail "negative step %d" step;
  let time = float () in
  if not (Float.is_finite time) then fail "non-finite time";
  let fields = List.init nfields (fun _ -> field ()) in
  (fields, step, time)

let rec mkdirs dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Namespaced per-job checkpoint directory under a shared root:
   root/jobs/<sanitized-id>.  Job ids come from user-supplied job files, so
   everything outside [A-Za-z0-9._-] is mapped to '_' (no separators, no
   parent escapes) and a leading '.' is masked; distinct ids that sanitize
   to the same name share a directory — callers wanting strict uniqueness
   should sanitize ids at admission instead. *)
let job_dir ~root ~job =
  let sane =
    String.mapi
      (fun i ch ->
        match ch with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> ch
        | '.' when i > 0 -> ch
        | _ -> '_')
      (if job = "" then "job" else job)
  in
  let dir = Filename.concat (Filename.concat root "jobs") sane in
  mkdirs dir;
  dir

let fsync_noerr fd = try Unix.fsync fd with Unix.Unix_error _ -> ()

(* Make the rename itself durable (best effort; not all systems allow
   opening a directory). *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      fsync_noerr fd;
      Unix.close fd
  | exception Unix.Unix_error _ -> ()

(* Write [content] to [path] in one output and fsync it. *)
let write_synced path content =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc content;
      Out_channel.flush oc;
      fsync_noerr (Unix.descr_of_out_channel oc))

(* Atomically publish [content] as dir/name. *)
let publish_text ~dir ~name content =
  let final = Filename.concat dir name in
  let tmp = final ^ ".tmp" in
  write_synced tmp (Bytes.of_string content);
  Sys.rename tmp final

(* --- retention ------------------------------------------------------------ *)

let parse_step name =
  let prefix = "ckpt_" and suffix = ".vmdg" in
  let np = String.length prefix and ns = String.length suffix in
  if
    String.length name > np + ns
    && String.sub name 0 np = prefix
    && Filename.check_suffix name suffix
  then int_of_string_opt (String.sub name np (String.length name - np - ns))
  else None

(* All checkpoints in [dir], oldest first. *)
let list_entries ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun name ->
           Option.map (fun step -> (step, name)) (parse_step name))
    |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)

let remove_entry ~dir name =
  let p = Filename.concat dir name in
  (try Sys.remove p with Sys_error _ -> ());
  (* stale tmp siblings: both the legacy ".tmp" and per-domain ".tmp.<id>" *)
  let tmp_prefix = name ^ ".tmp" in
  let npfx = String.length tmp_prefix in
  match Sys.readdir dir with
  | entries ->
      Array.iter
        (fun e ->
          if String.length e >= npfx && String.sub e 0 npfx = tmp_prefix then
            try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        entries
  | exception Sys_error _ -> ()

(* Keep only the newest [keep_last] checkpoints, deleting oldest-first
   (stale tmp siblings go with them).  Returns how many were deleted. *)
let prune ~dir ~keep_last =
  if keep_last < 1 then invalid_arg "Checkpoint.prune: keep_last must be >= 1";
  let entries = list_entries ~dir in
  let excess = List.length entries - keep_last in
  if excess <= 0 then 0
  else begin
    List.iteri (fun i (_, name) -> if i < excess then remove_entry ~dir name)
      entries;
    Obs.count "resilience.checkpoints_pruned" excess;
    excess
  end

(* Delete the single oldest checkpoint (the ENOSPC escape hatch).  Returns
   false when there is nothing left to sacrifice. *)
let prune_oldest ~dir =
  match list_entries ~dir with
  | [] -> false
  | (_, name) :: _ ->
      remove_entry ~dir name;
      Obs.count "resilience.checkpoints_pruned" 1;
      true

(* --- write ---------------------------------------------------------------- *)

let is_enospc = function
  | Unix.Unix_error (Unix.ENOSPC, _, _) -> true
  | Sys_error m ->
      (* out-of-space surfaced through the buffered channel layer *)
      let needle = "No space left on device" in
      let nl = String.length needle and ml = String.length m in
      let rec scan i =
        i + nl <= ml && (String.sub m i nl = needle || scan (i + 1))
      in
      scan 0
  | _ -> false

let write_once ?faults ~tmp ~final ~dir ~step bytes =
  (* injected disk-full bomb: fail before any bytes land *)
  (match faults with
  | Some fl when fl.Faults.ckpt_enospc > 0 ->
      fl.Faults.ckpt_enospc <- fl.Faults.ckpt_enospc - 1;
      raise (Unix.Unix_error (Unix.ENOSPC, "write", tmp))
  | _ -> ());
  write_synced tmp bytes;
  (* simulated crash window: the tmp exists, the rename never happens *)
  (match faults with
  | Some fl -> (
      match fl.Faults.ckpt_crash with
      | Some Faults.Crash_before_rename ->
          fl.Faults.ckpt_crash <- None;
          raise (Faults.Injected "checkpoint: killed before rename")
      | Some (Faults.Crash_truncate keep) ->
          fl.Faults.ckpt_crash <- None;
          Faults.truncate_file tmp ~keep;
          raise (Faults.Injected "checkpoint: killed mid-write")
      | None -> ())
  | None -> ());
  Sys.rename tmp final;
  publish_text ~dir ~name:latest_name (filename ~step);
  fsync_dir dir

let write ?faults ?keep_last ~dir ~step ~time (fields : Field.t list) =
  if fields = [] then invalid_arg "Checkpoint.write: empty state";
  (match keep_last with
  | Some k when k < 1 -> invalid_arg "Checkpoint.write: keep_last must be >= 1"
  | _ -> ());
  mkdirs dir;
  let final = Filename.concat dir (filename ~step) in
  (* The tmp name carries the writing domain's id: after a hung slice is
     quarantined and its job restarted elsewhere, the stuck domain may wake
     up and write one last checkpoint — a shared tmp name would let the two
     writers tear each other's files.  Distinct tmp names make the final
     atomic rename the only point of contention (last rename wins, and both
     writers produce bit-identical content at the same step anyway).  The
     [parse_step] scan ignores every tmp variant. *)
  let tmp = Printf.sprintf "%s.tmp.%d" final (Domain.self () :> int) in
  let t0 = Obs.now () in
  Obs.span "checkpoint_write" (fun () ->
      let bytes = encode ~step ~time fields in
      (* On a full disk, old checkpoints are the only thing we are entitled
         to delete: drop the oldest and retry until the write fits or there
         is nothing left to sacrifice. *)
      let rec go () =
        try write_once ?faults ~tmp ~final ~dir ~step bytes
        with e when is_enospc e ->
          (try Sys.remove tmp with Sys_error _ -> ());
          if prune_oldest ~dir then begin
            Obs.count "resilience.checkpoint_enospc_retries" 1;
            go ()
          end
          else raise e
      in
      go ();
      match keep_last with
      | Some k -> ignore (prune ~dir ~keep_last:k)
      | None -> ());
  Obs.count "resilience.checkpoint_writes" 1;
  Obs.add "resilience.checkpoint_write_s" (Obs.now () -. t0);
  { path = final; step; time }

(* --- read / validate ------------------------------------------------------ *)

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> decode s
  | exception Sys_error m -> failwith ("Checkpoint: " ^ m)

let validate path = match read path with _ -> true | exception _ -> false

(* --- restart scan --------------------------------------------------------- *)

(* The pointer is only trusted after its target checks out: a `latest` file
   can outlive its checkpoint (retention pruned it, a copy lost it) or name
   one that later rotted on disk.  A stale pointer is reported and treated
   as absent rather than handed to a caller who would crash on it. *)
let latest_path ~dir =
  let p = Filename.concat dir latest_name in
  match In_channel.with_open_bin p In_channel.input_all with
  | content -> (
      match String.trim content with
      | "" -> None
      | name ->
          let path = Filename.concat dir name in
          if Sys.file_exists path && validate path then Some path
          else begin
            Obs.count "resilience.stale_latest_pointer" 1;
            None
          end)
  | exception Sys_error _ -> None

(* Newest checkpoint that passes validation, with the fields it decoded
   to; the `latest` pointer is only a human/tooling convenience — the scan
   trusts checksums, not pointers. *)
let load_latest ~dir =
  let rec pick = function
    | [] -> None
    | (_, name) :: rest -> (
        let path = Filename.concat dir name in
        match read path with
        | fields, step, time -> Some ({ path; step; time }, fields)
        | exception _ ->
            Obs.count "resilience.invalid_checkpoints_skipped" 1;
            pick rest)
  in
  pick (List.rev (list_entries ~dir))

let find_latest ~dir = Option.map fst (load_latest ~dir)
