(* Fault-injection suite for the resilience layer: health scans,
   crash-consistent checkpointing, bit-exact restart, and rollback/retry
   stepping.  Every fault is deterministic (Dg_resilience.Faults), so these
   are ordinary reproducible tests. *)

module Field = Dg_grid.Field
module Grid = Dg_grid.Grid
module App = Dg_app.Vm_app
module Health = Dg_resilience.Health
module Faults = Dg_resilience.Faults
module Checkpoint = Dg_resilience.Checkpoint
module Retry = Dg_resilience.Retry
module Supervisor = Dg_resilience.Supervisor

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let clear dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)

(* Per-process directories, removed at exit: `dune build @check` runs this
   suite twice at once (runtest and the resilience alias). *)
let tmpdir name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dg_resil_%s_%d" name (Unix.getpid ()))
  in
  (* start from a clean slate even if a previous run crashed mid-test *)
  if Sys.file_exists dir then clear dir
  else begin
    Unix.mkdir dir 0o755;
    at_exit (fun () -> try clear dir; Unix.rmdir dir with _ -> ())
  end;
  dir

let mk_field ?(cells = [| 6; 6 |]) () =
  let grid =
    Grid.make ~cells ~lower:[| 0.0; 0.0 |] ~upper:[| 1.0; 1.0 |]
  in
  let f = Field.create grid ~ncomp:4 in
  let d = Field.data f in
  for i = 0 to Array.length d - 1 do
    d.(i) <- sin (float_of_int i)
  done;
  f

(* --- health --------------------------------------------------------------- *)

let test_health_clean () =
  let f = mk_field () in
  let r = Health.scan f in
  Alcotest.(check bool) "clean" true (Health.is_clean r);
  Alcotest.(check int) "no nan" 0 r.Health.nan;
  Alcotest.(check int) "no inf" 0 r.Health.inf

let test_health_counts () =
  let f = mk_field () in
  let d = Field.data f in
  d.(3) <- Float.nan;
  d.(7) <- Float.nan;
  d.(11) <- infinity;
  d.(13) <- neg_infinity;
  let r = Health.check [ f; mk_field () ] in
  Alcotest.(check int) "nan count" 2 r.Health.nan;
  Alcotest.(check int) "inf count" 2 r.Health.inf;
  Alcotest.(check bool) "unclean" false (Health.is_clean r)

let test_energy_jump () =
  Alcotest.(check bool) "small jump" true (Health.energy_jump ~prev:1.0 ~cur:1.01 < 0.02);
  Alcotest.(check bool) "nan is infinite" true (Health.energy_jump ~prev:1.0 ~cur:Float.nan = infinity);
  Alcotest.(check (float 0.0)) "equal" 0.0 (Health.energy_jump ~prev:0.0 ~cur:0.0)

(* --- checkpointing -------------------------------------------------------- *)

let test_checkpoint_roundtrip () =
  let dir = tmpdir "roundtrip" in
  let fields = [ mk_field (); mk_field ~cells:[| 4; 8 |] () ] in
  let info = Checkpoint.write ~dir ~step:42 ~time:1.5 fields in
  Alcotest.(check bool) "file exists" true (Sys.file_exists info.Checkpoint.path);
  Alcotest.(check bool) "validates" true (Checkpoint.validate info.Checkpoint.path);
  let fields', step, time = Checkpoint.read info.Checkpoint.path in
  Alcotest.(check int) "step" 42 step;
  Alcotest.(check (float 0.0)) "time" 1.5 time;
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "bit-exact data" true (Field.data a = Field.data b))
    fields fields'

(* The on-disk bytes of a checkpoint are a format: pin them.  The state
   is exactly representable (no libm), so the digest is the same on every
   host; a change here means old checkpoints no longer restore. *)
let test_checkpoint_bytes_pinned () =
  let dir = tmpdir "bytes" in
  let field cells ncomp =
    let grid =
      Grid.make ~cells ~lower:[| 0.0; -1.0 |] ~upper:[| 1.0; 1.0 |]
    in
    let f = Field.create grid ~ncomp in
    Array.iteri
      (fun i _ -> (Field.data f).(i) <- (float_of_int i /. 8.0) -. 3.0)
      (Field.data f);
    f
  in
  let info =
    Checkpoint.write ~dir ~step:17 ~time:0.375
      [ field [| 3; 4 |] 3; field [| 2; 5 |] 2 ]
  in
  Alcotest.(check string)
    "checkpoint digest" "7018d4f86a25aade8a47654e0b3b56e8"
    (Digest.to_hex (Digest.file info.Checkpoint.path));
  (* ghost layers, a 3D and a 1D field, a time that is not a dyadic *)
  let ghosted cells ~lower ~upper ncomp value =
    let f = Field.create ~nghost:1 (Grid.make ~cells ~lower ~upper) ~ncomp in
    Array.iteri (fun i _ -> (Field.data f).(i) <- value i) (Field.data f);
    f
  in
  let info =
    Checkpoint.write ~dir ~step:7 ~time:0.35
      [ ghosted [| 2; 3; 2 |] ~lower:[| -0.5; 0.0; -4.0 |]
          ~upper:[| 0.5; 2.0; 4.0 |] 2
          (fun i -> (float_of_int i /. 4.0) -. 5.0);
        ghosted [| 3 |] ~lower:[| 0.0 |] ~upper:[| 1.0 |] 8
          (fun i -> float_of_int (i mod 5) *. 0.125) ]
  in
  Alcotest.(check string)
    "ghosted checkpoint digest" "d9f6fac948287483f523b87e3990cbb4"
    (Digest.to_hex (Digest.file info.Checkpoint.path))

let test_checkpoint_detects_corruption () =
  let dir = tmpdir "corrupt" in
  let info = Checkpoint.write ~dir ~step:1 ~time:0.1 [ mk_field () ] in
  let path = info.Checkpoint.path in
  (* flip one byte in the middle of the payload *)
  Faults.corrupt_byte path ~at:100;
  Alcotest.(check bool) "corrupt fails validation" false (Checkpoint.validate path);
  match Checkpoint.read path with
  | _ -> Alcotest.fail "read of corrupt checkpoint should fail"
  | exception Failure m ->
      Alcotest.(check bool) "mentions checksum" true (contains ~sub:"checksum" m)

let test_checkpoint_detects_truncation () =
  let dir = tmpdir "truncate" in
  let info = Checkpoint.write ~dir ~step:2 ~time:0.2 [ mk_field () ] in
  Faults.truncate_file info.Checkpoint.path ~keep:64;
  Alcotest.(check bool) "truncated fails validation" false
    (Checkpoint.validate info.Checkpoint.path)

(* --- field records: every header check behind the checksum --------------- *)

(* The checksum is checked first, so a forged header is only reachable
   behind a trailer recomputed over the forged bytes. *)
let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let reseal body =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (fnv64 body);
  body ^ Bytes.to_string b

(* the checkpoint body (trailer dropped) of one small field *)
let body_of_one_field () =
  let dir = tmpdir "records" in
  let info = Checkpoint.write ~dir ~step:3 ~time:0.5 [ mk_field () ] in
  let s = In_channel.with_open_bin info.Checkpoint.path In_channel.input_all in
  String.sub s 0 (String.length s - 8)

(* Byte offsets of the words a test forges: the checkpoint header is magic,
   version, field count, step (4 bytes each) and time (8), then the first
   field record's magic, version and flag word. *)
let ckpt_version = 4
let field_magic = 24
let field_version = 28
let flag_word = 32

let set_word body off v =
  let b = Bytes.of_string body in
  Bytes.set_int32_be b off (Int32.of_int v);
  Bytes.to_string b

(* Read [bytes] as a checkpoint and expect a clean [Failure] naming [what]. *)
let expect_failure ~what bytes =
  let path = Filename.concat (tmpdir "forged") "forged.vmdg" in
  Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
  match Checkpoint.read path with
  | _ -> Alcotest.failf "read accepted a checkpoint that should fail (%s)" what
  | exception Failure m ->
      if not (contains ~sub:what m) then
        Alcotest.failf "message %S does not name the %s" m what

(* Grid, ghost width and component count survive, not only the data. *)
let test_record_roundtrip () =
  let dir = tmpdir "record_rt" in
  let grid =
    Grid.make ~cells:[| 3; 4 |] ~lower:[| 0.25; -2.0 |] ~upper:[| 1.0; 2.0 |]
  in
  let f = Field.create ~nghost:2 grid ~ncomp:5 in
  let rng = Random.State.make [| 41 |] in
  Array.iteri
    (fun i _ -> (Field.data f).(i) <- Random.State.float rng 2.0 -. 1.0)
    (Field.data f);
  let info = Checkpoint.write ~dir ~step:9 ~time:0.75 [ f; mk_field () ] in
  match Checkpoint.read info.Checkpoint.path with
  | [ g; _ ], 9, 0.75 ->
      let gg = Field.grid g in
      Alcotest.(check (array int)) "cells" [| 3; 4 |] (Grid.cells gg);
      Alcotest.(check (array (float 0.0))) "lower" (Grid.lower grid) (Grid.lower gg);
      Alcotest.(check (array (float 0.0))) "upper" (Grid.upper grid) (Grid.upper gg);
      Alcotest.(check int) "nghost" 2 (Field.nghost g);
      Alcotest.(check int) "ncomp" 5 (Field.ncomp g);
      Alcotest.(check bool) "bit-exact data, ghosts included" true
        (Field.data f = Field.data g)
  | _ -> Alcotest.fail "wrong field count, step or time"

let test_record_bad_magic () =
  let body = body_of_one_field () in
  expect_failure ~what:"magic" (reseal (set_word body 0 0xdeadbeef));
  expect_failure ~what:"magic" (reseal (set_word body field_magic 0xdeadbeef))

(* The retired v0 record (magic "VDG!", no version word) and a non-zero
   flag word (the retired metadata block) are refused, not misread. *)
let test_record_v0_rejected () =
  let body = body_of_one_field () in
  expect_failure ~what:"v0" (reseal (set_word body field_magic 0x56444721));
  expect_failure ~what:"flag" (reseal (set_word body flag_word 1))

let test_record_bad_version () =
  let body = body_of_one_field () in
  expect_failure ~what:"version" (reseal (set_word body ckpt_version 99));
  expect_failure ~what:"version" (reseal (set_word body field_version 99))

(* A short body behind a valid checksum: cut inside the coefficient
   array, and inside the field header. *)
let test_record_truncated () =
  let body = body_of_one_field () in
  let cut n = reseal (String.sub body 0 n) in
  expect_failure ~what:"truncated" (cut (String.length body - 9));
  expect_failure ~what:"truncated" (cut 30);
  expect_failure ~what:"truncated" (String.sub body 0 20)

let test_find_latest_skips_invalid () =
  let dir = tmpdir "latest" in
  let f = [ mk_field () ] in
  ignore (Checkpoint.write ~dir ~step:10 ~time:1.0 f);
  let newer = Checkpoint.write ~dir ~step:20 ~time:2.0 f in
  (* corrupt the newest: the scan must fall back to step 10 *)
  Faults.corrupt_byte newer.Checkpoint.path ~at:50;
  match Checkpoint.find_latest ~dir with
  | Some info -> Alcotest.(check int) "fell back to older valid" 10 info.Checkpoint.step
  | None -> Alcotest.fail "no valid checkpoint found"

let test_crash_mid_write_leaves_no_ckpt () =
  let dir = tmpdir "crash" in
  let f = [ mk_field () ] in
  let faults = Faults.none () in
  faults.Faults.ckpt_crash <- Some (Faults.Crash_truncate 32);
  (match Checkpoint.write ~faults ~dir ~step:5 ~time:0.5 f with
  | _ -> Alcotest.fail "expected simulated crash"
  | exception Faults.Injected _ -> ());
  (* only a tmp file exists; restart must see no checkpoint at all *)
  Alcotest.(check bool) "no valid checkpoint" true (Checkpoint.find_latest ~dir = None);
  (* a crash before rename, after a good checkpoint, keeps the good one *)
  ignore (Checkpoint.write ~dir ~step:6 ~time:0.6 f);
  faults.Faults.ckpt_crash <- Some Faults.Crash_before_rename;
  (match Checkpoint.write ~faults ~dir ~step:7 ~time:0.7 f with
  | _ -> Alcotest.fail "expected simulated crash"
  | exception Faults.Injected _ -> ());
  match Checkpoint.find_latest ~dir with
  | Some info -> Alcotest.(check int) "previous checkpoint survives" 6 info.Checkpoint.step
  | None -> Alcotest.fail "lost the good checkpoint"

(* --- app-level restart equivalence ---------------------------------------- *)

let small_spec () =
  let k = 0.5 in
  let l = 2.0 *. Float.pi /. k in
  let electron =
    App.species ~name:"elc" ~charge:(-1.0) ~mass:1.0
      ~init_f:(fun ~pos ~vel ->
        (1.0 +. (0.05 *. cos (k *. pos.(0))))
        *. exp (-0.5 *. vel.(0) *. vel.(0))
        /. sqrt (2.0 *. Float.pi))
      ()
  in
  {
    (App.default_spec ~cdim:1 ~vdim:1 ~cells:[| 8; 16 |] ~lower:[| 0.0; -6.0 |]
       ~upper:[| l; 6.0 |] ~species:[ electron ])
    with
    App.field_model = App.Ampere_only;
    poly_order = 1;
    init_em =
      Some
        (fun x ->
          let em = Array.make 8 0.0 in
          em.(0) <- -.(0.05 /. 0.5) *. sin (0.5 *. x.(0));
          em);
  }

let state_data app =
  List.concat
    [
      Array.to_list (Array.map Array.copy [| Field.data (App.distribution app 0) |]);
      [ Array.copy (Field.data (App.em_field app)) ];
    ]

(* Every cell [dst] stores (interior and ghosts) holds, bitwise, what
   [src] holds at the same coordinates; [src] may be padded more widely. *)
let stored_equal ~src dst =
  let x = Field.clone dst in
  Field.copy_stored ~src ~dst:x;
  Array.for_all2
    (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
    (Field.data x) (Field.data dst)

(* [k c] on every coordinate [f] stores, interior and ghosts. *)
let iter_stored f k =
  let cells = Grid.cells (Field.grid f) in
  let ndim = Array.length cells in
  let c = Array.make ndim 0 in
  let rec go d =
    if d = ndim then k c
    else
      for x = -Field.ghost f d to cells.(d) + Field.ghost f d - 1 do
        c.(d) <- x;
        go (d + 1)
      done
  in
  go 0

(* A uniformly padded (one layer everywhere) copy of [f]: what a phase
   field looked like before it dropped its velocity ghosts, which only
   ever held the zeros of their Zero condition. *)
let uniform_twin f =
  let u = Field.create ~nghost:1 (Field.grid f) ~ncomp:(Field.ncomp f) in
  let block = Array.make (Field.ncomp f) 0.0 in
  iter_stored f (fun c ->
      Field.read_block f c block;
      Field.write_block u c block);
  u

let file_bytes path = In_channel.with_open_bin path In_channel.input_all

(* A phase field padded in its configuration dimensions only encodes to
   the bytes of its uniformly padded twin, on random grids and data. *)
let test_phase_field_bytes () =
  let rng = Random.State.make [| 33 |] in
  for trial = 1 to 12 do
    let ndim = 2 + Random.State.int rng 3 in
    let cdim = 1 + Random.State.int rng (ndim - 1) in
    let cells = Array.init ndim (fun _ -> 1 + Random.State.int rng 4) in
    let grid =
      Grid.make ~cells ~lower:(Array.make ndim (-1.0))
        ~upper:(Array.make ndim 1.5)
    in
    let ncomp = 1 + Random.State.int rng 3 in
    let p = Field.create_phase ~cdim grid ~ncomp in
    let d = Field.data p in
    Array.iteri (fun i _ -> d.(i) <- Random.State.float rng 2.0 -. 1.0) d;
    let em = mk_field () in
    let write name fields =
      let dir = tmpdir (Printf.sprintf "phase_bytes_%s_%d" name trial) in
      file_bytes (Checkpoint.write ~dir ~step:trial ~time:0.25 fields).Checkpoint.path
    in
    if write "phase" [ p; em ] <> write "uniform" [ uniform_twin p; em ] then
      Alcotest.failf "trial %d (cells %s, cdim %d): bytes differ" trial
        (String.concat "x" (Array.to_list (Array.map string_of_int cells)))
        cdim
  done

let test_restart_bit_exact () =
  let dir = tmpdir "restart" in
  let spec = small_spec () in
  (* reference: 20 uninterrupted steps *)
  let a = App.create spec in
  for _ = 1 to 20 do
    ignore (App.step a)
  done;
  (* checkpointed: 10 steps, checkpoint, restore into a FRESH app, 10 more *)
  let b = App.create spec in
  for _ = 1 to 10 do
    ignore (App.step b)
  done;
  ignore (App.checkpoint b ~dir);
  let c = App.create spec in
  (match App.restore_latest c ~dir with
  | Some info ->
      Alcotest.(check int) "resumed at step 10" 10 info.Checkpoint.step
  | None -> Alcotest.fail "restore_latest found nothing");
  Alcotest.(check int) "nsteps restored" 10 (App.nsteps c);
  for _ = 1 to 10 do
    ignore (App.step c)
  done;
  Alcotest.(check bool) "same time" true (App.time a = App.time c);
  List.iter2
    (fun da dc ->
      Alcotest.(check bool) "bit-identical trajectory" true (da = dc))
    (state_data a) (state_data c)

(* A checkpoint of uniformly padded fields (the layout phase fields had
   before they dropped their velocity ghosts) restores through
   Vm_app.restore to a bitwise-equal state, interior and configuration
   ghosts included, and the resumed run stays bit-exact. *)
let test_restore_uniform_layout () =
  let dir = tmpdir "uniform_restore" in
  let spec = small_spec () in
  let a = App.create spec in
  for _ = 1 to 10 do
    ignore (App.step a)
  done;
  let state a = [ App.distribution a 0; App.em_field a ] in
  let twins = List.map uniform_twin (state a) in
  ignore
    (Checkpoint.write ~dir ~step:(App.nsteps a) ~time:(App.time a) twins);
  let c = App.create spec in
  (match App.restore_latest c ~dir with
  | Some info -> Alcotest.(check int) "resumed at step 10" 10 info.Checkpoint.step
  | None -> Alcotest.fail "restore_latest found nothing");
  List.iter2
    (fun fa fc ->
      Alcotest.(check bool) "restored == state, every stored cell" true
        (Field.data fa = Field.data fc))
    (state a) (state c);
  for _ = 1 to 10 do
    ignore (App.step a);
    ignore (App.step c)
  done;
  List.iter2
    (fun da dc ->
      Alcotest.(check bool) "bit-identical trajectory" true (da = dc))
    (state_data a) (state_data c)

let test_restore_shape_mismatch () =
  let dir = tmpdir "mismatch" in
  let a = App.create (small_spec ()) in
  ignore (App.checkpoint a ~dir);
  let spec' = { (small_spec ()) with App.cells = [| 4; 8 |] } in
  let b = App.create spec' in
  match App.restore_latest b ~dir with
  | _ -> Alcotest.fail "shape mismatch should raise"
  | exception Failure m ->
      Alcotest.(check bool) "mentions shape" true
        (String.length m > 0)

(* Resuming a job rebuilds its app without the initial condition: the
   checkpoint supplies the whole state, so [init_f] and [init_em] are never
   evaluated, and the resumed state is the checkpoint's, bit for bit. *)
let test_resume_skips_projection () =
  let dir = tmpdir "resume_noproj" in
  let f_calls = ref 0 and em_calls = ref 0 in
  let base = small_spec () in
  let spec =
    {
      base with
      App.species =
        List.map
          (fun (sp : App.species_spec) ->
            {
              sp with
              App.init_f =
                (fun ~pos ~vel ->
                  incr f_calls;
                  sp.App.init_f ~pos ~vel);
            })
          base.App.species;
      init_em =
        Option.map
          (fun f x ->
            incr em_calls;
            f x)
          base.App.init_em;
    }
  in
  let a, resumed = App.create_resumable spec ~checkpoint_dir:dir in
  Alcotest.(check bool) "fresh job: nothing to resume" true (resumed = None);
  Alcotest.(check bool) "fresh job projects init_f" true (!f_calls > 0);
  Alcotest.(check bool) "fresh job projects init_em" true (!em_calls > 0);
  for _ = 1 to 5 do
    ignore (App.step a)
  done;
  ignore (App.checkpoint a ~dir);
  f_calls := 0;
  em_calls := 0;
  let b, resumed = App.create_resumable spec ~checkpoint_dir:dir in
  (match resumed with
  | Some info -> Alcotest.(check int) "resumed at step 5" 5 info.Checkpoint.step
  | None -> Alcotest.fail "create_resumable found no checkpoint");
  Alcotest.(check int) "init_f calls on resume" 0 !f_calls;
  Alcotest.(check int) "init_em calls on resume" 0 !em_calls;
  Alcotest.(check int) "nsteps restored" 5 (App.nsteps b);
  Alcotest.(check bool) "time restored" true (App.time a = App.time b);
  match Checkpoint.load_latest ~dir with
  | None -> Alcotest.fail "checkpoint vanished"
  | Some (_, fields) ->
      List.iter2
        (fun ck db ->
          Alcotest.(check bool)
            "resumed state == checkpoint, bitwise" true
            (stored_equal ~src:ck db))
        fields
        [ App.distribution b 0; App.em_field b ]

(* --- rollback/retry ------------------------------------------------------- *)

let test_rollback_retry_reaches_tend () =
  let app = App.create (small_spec ()) in
  let faults = Faults.none () in
  faults.Faults.nan_step <- Some 3;
  let tend = 0.5 in
  let policy = { Retry.default with Retry.check_every = 2 } in
  let fired = ref 0 in
  let stats =
    App.run_resilient ~policy ~faults ~on_step:(fun _ -> incr fired) app ~tend
  in
  Alcotest.(check bool) "reached tend" true (App.time app >= tend -. 1e-9);
  Alcotest.(check bool)
    "retried at least once" true
    (stats.Retry.tier1_rollbacks >= 1);
  (* on_step fires after every step but the check step of a failed window,
     so the rolled-back steps before it have fired too *)
  Alcotest.(check int)
    "on_step count"
    (stats.Retry.steps - stats.Retry.tier1_rollbacks)
    !fired;
  Alcotest.(check bool) "rolled-back steps fired" true (!fired > App.nsteps app);
  Alcotest.(check bool) "fault fired" true faults.Faults.nan_fired;
  let r = Health.check (List.init 1 (App.distribution app) @ [ App.em_field app ]) in
  Alcotest.(check bool) "final state clean" true (Health.is_clean r)

let test_resilient_clean_run_no_retries () =
  let app = App.create (small_spec ()) in
  let stats = App.run_resilient app ~tend:0.3 in
  Alcotest.(check int) "no retries" 0 stats.Retry.tier1_rollbacks;
  Alcotest.(check bool) "checked health" true (stats.Retry.health_checks >= 1)

let test_resilient_checkpoints () =
  let dir = tmpdir "resil_ckpt" in
  let app = App.create (small_spec ()) in
  let stats =
    App.run_resilient app ~tend:0.5 ~checkpoint_every:5 ~checkpoint_dir:dir
  in
  Alcotest.(check bool) "wrote checkpoints" true (stats.Retry.checkpoints >= 1);
  match Checkpoint.find_latest ~dir with
  | Some _ -> ()
  | None -> Alcotest.fail "no checkpoint on disk"

(* A periodic checkpoint is a state that passed a health check: with
   cadence K it is written at the first healthy window check at least K
   steps after the previous one (the first one K steps in), never between
   checks.  Windows close every [check_every] steps and at the last step;
   on this clean run every window is healthy. *)
let test_checkpoint_cadence () =
  let k = 3 in
  List.iter
    (fun check_every ->
      let dir = tmpdir (Printf.sprintf "cadence_%d" check_every) in
      let app = App.create (small_spec ()) in
      let policy = { Retry.default with Retry.check_every } in
      let stats =
        App.run_resilient ~policy app ~tend:2.0 ~checkpoint_every:k
          ~checkpoint_dir:dir
      in
      let n = App.nsteps app in
      let tag = Printf.sprintf "K=%d check_every=%d, %d steps" k check_every n in
      Alcotest.(check int)
        (tag ^ ": no retries") 0 stats.Retry.tier1_rollbacks;
      if n < (2 * check_every) + k then
        Alcotest.failf "%s: too few steps to see the cadence" tag;
      let checks =
        List.sort_uniq compare
          (n :: List.init (n / check_every) (fun i -> (i + 1) * check_every))
      in
      let expected, _ =
        List.fold_left
          (fun (acc, next) s -> if s >= next then (s :: acc, s + k) else (acc, next))
          ([], k) checks
      in
      let written =
        List.filter
          (fun s -> Sys.file_exists (Filename.concat dir (Checkpoint.filename ~step:s)))
          (List.init (n + 1) Fun.id)
      in
      Alcotest.(check (list int)) (tag ^ ": checkpoint steps") (List.rev expected)
        written;
      Alcotest.(check int) (tag ^ ": writes counted") (List.length written)
        stats.Retry.checkpoints;
      (* the cadence never forces a write between window checks *)
      List.iter
        (fun s ->
          if s mod check_every <> 0 && s <> n then
            Alcotest.failf "%s: checkpoint at step %d, between checks" tag s)
        written)
    [ 10; 3 ]

let test_initial_nan_rejected () =
  let app = App.create (small_spec ()) in
  (Field.data (App.distribution app 0)).(0) <- Float.nan;
  match App.run_resilient app ~tend:0.1 with
  | _ -> Alcotest.fail "poisoned initial state must be rejected"
  | exception Failure _ -> ()

(* --- degradation ladder: tier 0 vs tier 1 --------------------------------- *)

(* p=1 projections of a Maxwellian are node-negative in the tails from
   step 0, which would trip `Detect before any fault fires; at p=2 the
   Gauss-Lobatto node values of the initial state are positive, so only
   the injected overshoot is in play. *)
let ladder_spec () = { (small_spec ()) with App.poly_order = 2 }

(* The same injected negative overshoot, two runs: with the positivity
   limiter the run is absorbed at tier 0 (no rollback at all); with the
   limiter in detect-only mode it must escalate to tier 1 instead. *)
let test_tier0_absorbs_negativity () =
  let app = App.create (ladder_spec ()) in
  let faults = Faults.none () in
  faults.Faults.neg_step <- Some 3;
  let policy = { Retry.default with Retry.check_every = 2 } in
  let stats =
    App.run_resilient ~policy ~faults ~positivity:`Repair app ~tend:0.5
  in
  Alcotest.(check bool) "fault fired" true faults.Faults.neg_fired;
  Alcotest.(check bool) "reached tend" true (App.time app >= 0.5 -. 1e-9);
  Alcotest.(check bool) "limiter repaired" true (stats.Retry.tier0_repairs >= 1);
  Alcotest.(check bool) "cells clamped" true (stats.Retry.cells_clamped >= 1);
  Alcotest.(check int) "zero rollbacks" 0 stats.Retry.tier1_rollbacks;
  Alcotest.(check int) "no restores" 0 stats.Retry.tier2_restores;
  Alcotest.(check int) "no aborts" 0 stats.Retry.tier3_aborts

let test_detect_escalates_to_tier1 () =
  let app = App.create (ladder_spec ()) in
  let faults = Faults.none () in
  faults.Faults.neg_step <- Some 1;
  (* short horizon: long enough for the fault window + clean replay, short
     enough that no *natural* projection negativity appears (which detect
     mode rightly treats as unrecoverable and escalates to tier 3) *)
  let tend = 0.1 in
  let policy = { Retry.default with Retry.check_every = 1 } in
  let stats =
    App.run_resilient ~policy ~faults ~positivity:`Detect app ~tend
  in
  Alcotest.(check bool) "fault fired" true faults.Faults.neg_fired;
  Alcotest.(check bool) "reached tend" true (App.time app >= tend -. 1e-9);
  Alcotest.(check int) "detect mode never repairs" 0 stats.Retry.tier0_repairs;
  Alcotest.(check bool)
    "escalated to tier 1" true
    (stats.Retry.tier1_rollbacks >= 1)

(* --- tiers 2 and 3, pinned bitwise --------------------------------------- *)

(* Digest of the (step, time bits) sequence [on_step] saw. *)
let trace_digest seen =
  let b = Buffer.create 256 in
  List.iter
    (fun (step, time) ->
      Buffer.add_int64_be b (Int64.of_int step);
      Buffer.add_int64_be b (Int64.bits_of_float time))
    seen;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Digest of the bits of every stored coefficient of the app's state. *)
let state_digest app =
  let b = Buffer.create 4096 in
  List.iter
    (Array.iter (fun x -> Buffer.add_int64_be b (Int64.bits_of_float x)))
    (state_data app);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* A NaN struck after step [nan_step] of [small_spec], run to t = 0.5
   under [policy]; returns the app, the (step, time) pairs [on_step] saw,
   and the stats or the failure text. *)
let faulted_run ?checkpoint_dir ?(checkpoint_every = 0) ~policy ~nan_step () =
  let app = App.create (small_spec ()) in
  let faults = Faults.none () in
  faults.Faults.nan_step <- Some nan_step;
  let seen = ref [] in
  let result =
    match
      App.run_resilient ~policy ~faults ?checkpoint_dir ~checkpoint_every
        ~on_step:(fun t -> seen := (App.nsteps t, App.time t) :: !seen)
        app ~tend:0.5
    with
    | stats -> Ok stats
    | exception Failure m -> Error m
  in
  (app, List.rev !seen, result)

let check_seen tag expected seen =
  Alcotest.(check (list int)) (tag ^ ": steps on_step saw") expected
    (List.map fst seen)

let final_clean app =
  Health.is_clean (Health.check [ App.distribution app 0; App.em_field app ])

let ladder_counts (s : Retry.stats) =
  [ s.steps; s.tier1_rollbacks; s.tier2_restores; s.tier3_aborts ]

let ckpt_steps dir =
  List.filter
    (fun s ->
      Sys.file_exists (Filename.concat dir (Checkpoint.filename ~step:s)))
    (List.init 20 Fun.id)

(* The tier-1 run of "NaN at step k still reaches tend": the window of
   steps 3-4 fails and rolls back to step 2.  The digests were taken
   before the ladder's decisions moved into [Retry.decide]. *)
let test_tier1_run_pinned () =
  let policy = { Retry.default with Retry.check_every = 2 } in
  let app, seen, result = faulted_run ~policy ~nan_step:3 () in
  let stats = Result.get_ok result in
  check_seen "tier 1" [ 1; 2; 3; 3; 4; 5; 6; 7; 8; 9 ] seen;
  Alcotest.(check string) "on_step (step, time bits)"
    "c9ce31b85d3768f488078d89ab857658" (trace_digest seen);
  Alcotest.(check string) "final state bits" "36a3938a5b96fe8dc512a13ddd0663ce"
    (state_digest app);
  Alcotest.(check (list int)) "steps, rollbacks, restores, aborts"
    [ 11; 1; 0; 0 ]
    (ladder_counts stats)

(* Tier 2: no in-memory retries, one restore.  The window of steps 5-6
   fails and is restored from the step-4 checkpoint on disk, never rolled
   back in memory, so it counts as a restore only. *)
let tier2_policy =
  {
    Retry.default with
    Retry.check_every = 2;
    max_retries = 0;
    max_restores = 1;
  }

let test_tier2_restores_checkpoint () =
  let dir = tmpdir "tier2" in
  let app, seen, result =
    faulted_run ~checkpoint_dir:dir ~checkpoint_every:2 ~policy:tier2_policy
      ~nan_step:5 ()
  in
  let stats = Result.get_ok result in
  check_seen "tier 2" [ 1; 2; 3; 4; 5; 5; 6; 7; 8; 9 ] seen;
  (* the replayed step 5 starts from the step-4 checkpoint *)
  let ckpt4 = Filename.concat dir (Checkpoint.filename ~step:4) in
  (match Checkpoint.read ckpt4 with
  | _, 4, time ->
      Alcotest.(check bool) "checkpoint 4 holds the time on_step saw at 4"
        true
        (List.assoc 4 seen = time)
  | _ -> Alcotest.fail "ckpt_000000004 is not step 4");
  Alcotest.(check string) "on_step (step, time bits)"
    "b43c51cfb1044c8ded6c839334ddeafb" (trace_digest seen);
  Alcotest.(check string) "final state bits" "9c26c78eadccff4ccdf6d47e3caa415f"
    (state_digest app);
  Alcotest.(check bool) "reached t = 0.5" true (App.time app = 0.5);
  Alcotest.(check bool) "final state clean" true (final_clean app);
  Alcotest.(check (list int))
    "checkpoint steps" [ 2; 4; 6; 8 ] (ckpt_steps dir);
  Alcotest.(check (list int)) "steps, rollbacks, restores, aborts"
    [ 11; 0; 1; 0 ]
    (ladder_counts stats);
  Alcotest.(check int) "one health check per closed window" 6
    stats.Retry.health_checks

(* Tier 3 in process: with no restore budget the same failed window
   aborts, after putting last-good (step 4) back on disk. *)
let test_tier3_aborts () =
  let dir = tmpdir "tier3" in
  let policy = { tier2_policy with Retry.max_restores = 0 } in
  let _, seen, result =
    faulted_run ~checkpoint_dir:dir ~checkpoint_every:2 ~policy ~nan_step:5 ()
  in
  check_seen "tier 3" [ 1; 2; 3; 4; 5 ] seen;
  (match result with
  | Ok _ -> Alcotest.fail "tier 3 must raise"
  | Error m ->
      Alcotest.(check string) "failure text"
        "Vm_app.run_resilient: aborting at t=0.303201 after 0 retries: \
         non-finite (234 NaN, 0 Inf)"
        m);
  Alcotest.(check (list int)) "checkpoint steps" [ 2; 4 ] (ckpt_steps dir);
  match Checkpoint.load_latest ~dir with
  | Some (info, fields) ->
      Alcotest.(check int) "newest is step 4" 4 info.Checkpoint.step;
      Alcotest.(check bool) "newest loads clean" true
        (Health.is_clean (Health.check fields))
  | None -> Alcotest.fail "no valid checkpoint left"

(* --- the ladder core: properties over random window sequences ----------- *)

type scenario = {
  policy : Retry.policy;
  checkpoint_every : int;
  can_restore : bool;
  start_step : int;
  windows : (bool * int * float * float) list;
      (* healthy, steps in the window, dt, CFL dt *)
}

let pp_scenario s =
  let p = s.policy in
  Printf.sprintf
    "check_every=%d max_retries=%d max_restores=%d shrink=%g grow=%g \
     checkpoint_every=%d can_restore=%b start=%d windows=[%s]"
    p.Retry.check_every p.Retry.max_retries p.Retry.max_restores
    p.Retry.dt_shrink p.Retry.dt_grow s.checkpoint_every s.can_restore
    s.start_step
    (String.concat "; "
       (List.map
          (fun (h, n, dt, cfl) ->
            Printf.sprintf "%s %d %g %g" (if h then "ok" else "FAIL") n dt cfl)
          s.windows))

(* Dyadic knobs and dts make the regrown ceiling land exactly on the CFL
   dt now and then. *)
let arb_scenario =
  QCheck.make ~print:pp_scenario
    QCheck.Gen.(
      let dt_gen =
        oneof [ float_range 1e-3 1.0; oneofl [ 0.125; 0.25; 0.5; 1.0 ] ]
      in
      let* check_every = int_range 1 4 in
      let* max_retries = int_range 0 3 in
      let* max_restores = int_range 0 2 in
      let* dt_shrink = oneof [ float_range 0.1 0.9; oneofl [ 0.25; 0.5 ] ] in
      let* dt_grow = oneof [ float_range 1.1 3.0; oneofl [ 2.0; 4.0 ] ] in
      let* checkpoint_every = int_range 0 6 in
      let* can_restore = bool in
      let* start_step = int_range 0 20 in
      let* p_fail = float_range 0.1 0.9 in
      let* windows =
        list_size (int_range 1 40)
          (quad
             (map (fun x -> x >= p_fail) (float_bound_inclusive 1.0))
             (int_range 1 check_every) dt_gen dt_gen)
      in
      return
        {
          policy =
            {
              Retry.default with
              Retry.check_every;
              max_retries;
              max_restores;
              dt_shrink;
              dt_grow;
            };
          checkpoint_every;
          can_restore;
          start_step;
          windows;
        })

(* Feed the windows to [Retry.decide] as the run loop does, up to the
   first abort: a window closes [n] steps after the last accepted one.
   Returns (window, ladder before, decision, ladder after) per window. *)
let replay s =
  let rec go l step acc = function
    | [] -> List.rev acc
    | (healthy, n, dt, dt_cfl) :: rest -> (
        let w = { Retry.healthy; step = step + n; dt; dt_cfl } in
        let l', d = Retry.decide s.policy l ~can_restore:s.can_restore w in
        let acc = (w, l, d, l') :: acc in
        match d with
        | Retry.Accept _ -> go l' w.Retry.step acc rest
        | Retry.Rollback | Retry.Restore -> go l' step acc rest
        | Retry.Abort -> List.rev acc)
  in
  go
    (Retry.start ~checkpoint_every:s.checkpoint_every ~step:s.start_step)
    s.start_step [] s.windows

let decision_name = function
  | Retry.Accept { checkpoint } ->
      Printf.sprintf "Accept {checkpoint = %b}" checkpoint
  | Retry.Rollback -> "Rollback"
  | Retry.Restore -> "Restore"
  | Retry.Abort -> "Abort"

let prop_escalation =
  QCheck.Test.make ~name:"ladder: rollback x max_retries, then restore or abort"
    ~count:500 arb_scenario (fun s ->
      let p = s.policy in
      ignore
        (List.fold_left
           (fun (i, failed, restores) ((w : Retry.window), _, d, _) ->
             let expect want failed restores =
               (match (want, d) with
               | `Accept, Retry.Accept _
               | `Rollback, Retry.Rollback
               | `Restore, Retry.Restore
               | `Abort, Retry.Abort ->
                   ()
               | _ ->
                   QCheck.Test.fail_reportf "window %d: got %s" i
                     (decision_name d));
               (i + 1, failed, restores)
             in
             if w.healthy then expect `Accept 0 restores
             else if failed + 1 <= p.Retry.max_retries then
               expect `Rollback (failed + 1) restores
             else if restores < p.Retry.max_restores && s.can_restore then
               expect `Restore 0 (restores + 1)
             else expect `Abort (failed + 1) restores)
           (0, 0, 0) (replay s));
      true)

let prop_dt_ceiling =
  QCheck.Test.make
    ~name:"ladder: failures shrink the dt ceiling, health regrows it"
    ~count:500 arb_scenario (fun s ->
      let p = s.policy in
      List.iteri
        (fun i ((w : Retry.window), (l : Retry.ladder), _, (l' : Retry.ladder))
           ->
          let want =
            if w.healthy then
              let c = l.dt_ceiling *. p.Retry.dt_grow in
              if c >= w.dt_cfl then infinity else c
            else Float.min l.dt_ceiling w.dt *. p.Retry.dt_shrink
          in
          if not (l'.dt_ceiling = want) then
            QCheck.Test.fail_reportf "window %d: ceiling %g -> %g, want %g" i
              l.dt_ceiling l'.dt_ceiling want;
          if (not w.healthy) && not (l'.dt_ceiling < w.dt) then
            QCheck.Test.fail_reportf "window %d: failed at dt %g, ceiling %g" i
              w.dt l'.dt_ceiling)
        (replay s);
      true)

let prop_checkpoint_cadence =
  QCheck.Test.make
    ~name:"ladder: checkpoint at the first healthy window K steps on" ~count:500
    arb_scenario (fun s ->
      ignore
        (List.fold_left
           (fun (i, last) ((w : Retry.window), _, d, _) ->
             let due =
               w.healthy && s.checkpoint_every > 0
               && w.step >= last + s.checkpoint_every
             in
             let wrote = d = Retry.Accept { checkpoint = true } in
             if wrote <> due then
               QCheck.Test.fail_reportf
                 "window %d at step %d (last checkpoint %d): %s" i w.step last
                 (decision_name d);
             (i + 1, if wrote then w.step else last))
           (0, s.start_step) (replay s));
      true)

let prop_window_cadence =
  QCheck.Test.make
    ~name:"ladder: a window closes every check_every steps and at tend"
    ~count:500
    QCheck.(
      pair (int_range 1 6)
        (list_of_size
           Gen.(int_range 1 60)
           (make Gen.(map (fun x -> x = 0) (int_bound 9)))))
    (fun (check_every, ends) ->
      let policy = { Retry.default with Retry.check_every } in
      ignore
        (List.fold_left
           (fun (l, since) at_end ->
             let l, due = Retry.tick policy l ~at_end in
             let since = since + 1 in
             if due <> (since = check_every || at_end) then
               QCheck.Test.fail_reportf
                 "%d steps since the last window, at_end=%b: due=%b" since
                 at_end due;
             (l, if due then 0 else since))
           (Retry.start ~checkpoint_every:0 ~step:0, 0)
           ends);
      true)

(* --- supervised stop ------------------------------------------------------- *)

let test_sigterm_stop_then_bit_exact_restart () =
  let dir = tmpdir "sigterm" in
  let tend = 0.5 in
  let policy = { Retry.default with Retry.check_every = 2 } in
  (* reference: the same resilient loop, never interrupted *)
  let a = App.create (small_spec ()) in
  ignore (App.run_resilient ~policy a ~tend);
  (* supervised: a real SIGTERM arrives mid-run; the loop must stop at the
     next step boundary and leave a checksum-valid checkpoint behind *)
  let b = App.create (small_spec ()) in
  let stats =
    Supervisor.with_supervisor (fun sup ->
        let killed = ref false in
        App.run_resilient ~policy ~supervisor:sup ~checkpoint_dir:dir
          ~on_step:(fun t ->
            if (not !killed) && App.nsteps t >= 2 then begin
              killed := true;
              Unix.kill (Unix.getpid ()) Sys.sigterm
            end)
          b ~tend)
  in
  Alcotest.(check (option string))
    "stopped by SIGTERM" (Some "SIGTERM") stats.Retry.stopped;
  Alcotest.(check bool) "stopped before tend" true (App.time b < tend);
  (match Checkpoint.latest_path ~dir with
  | Some p ->
      Alcotest.(check bool) "final checkpoint validates" true
        (Checkpoint.validate p)
  | None -> Alcotest.fail "no latest checkpoint after SIGTERM");
  (* resume into a fresh app and run the remainder: bit-exact vs reference *)
  let c = App.create (small_spec ()) in
  (match App.restore_latest c ~dir with
  | Some info ->
      Alcotest.(check int) "resumed where B stopped" (App.nsteps b)
        info.Checkpoint.step
  | None -> Alcotest.fail "restore_latest found nothing");
  ignore (App.run_resilient ~policy c ~tend);
  Alcotest.(check bool) "same final time" true (App.time a = App.time c);
  List.iter2
    (fun da dc ->
      Alcotest.(check bool) "bit-identical state after resume" true (da = dc))
    (state_data a) (state_data c)

let test_max_wall_stops_run () =
  let app = App.create (small_spec ()) in
  let stats =
    Supervisor.with_supervisor ~max_wall:1e-6 (fun sup ->
        App.run_resilient ~supervisor:sup app ~tend:5.0)
  in
  Alcotest.(check (option string))
    "stopped by wall budget" (Some "max-wall") stats.Retry.stopped;
  Alcotest.(check bool) "stopped early" true (App.time app < 5.0)

let test_supervisor_first_stop_wins () =
  let sup = Supervisor.create () in
  Supervisor.request_stop sup "SIGTERM";
  Supervisor.request_stop sup "SIGINT";
  match Supervisor.should_stop sup with
  | Some (Supervisor.Signal "SIGTERM") -> ()
  | Some r -> Alcotest.failf "wrong reason: %s" (Supervisor.reason_to_string r)
  | None -> Alcotest.fail "stop request lost"

(* --- checkpoint retention and disk-full handling --------------------------- *)

let test_keep_last_retention () =
  let dir = tmpdir "retention" in
  let f = [ mk_field () ] in
  for s = 1 to 5 do
    ignore (Checkpoint.write ~keep_last:2 ~dir ~step:s ~time:(float_of_int s) f)
  done;
  let entries =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".vmdg")
  in
  Alcotest.(check int) "only the two newest kept" 2 (List.length entries);
  (match Checkpoint.find_latest ~dir with
  | Some info -> Alcotest.(check int) "newest survives" 5 info.Checkpoint.step
  | None -> Alcotest.fail "retention deleted everything");
  match Checkpoint.latest_path ~dir with
  | Some p ->
      Alcotest.(check bool) "latest pointer valid after prune" true
        (Checkpoint.validate p)
  | None -> Alcotest.fail "latest pointer stale after prune"

let test_enospc_prunes_then_succeeds () =
  let dir = tmpdir "enospc" in
  let f = [ mk_field () ] in
  ignore (Checkpoint.write ~dir ~step:1 ~time:0.1 f);
  ignore (Checkpoint.write ~dir ~step:2 ~time:0.2 f);
  let faults = Faults.none () in
  faults.Faults.ckpt_enospc <- 1;
  let info = Checkpoint.write ~faults ~dir ~step:3 ~time:0.3 f in
  Alcotest.(check bool) "write landed after prune" true
    (Checkpoint.validate info.Checkpoint.path);
  Alcotest.(check bool) "oldest sacrificed" false
    (Sys.file_exists (Filename.concat dir (Checkpoint.filename ~step:1)));
  Alcotest.(check bool) "survivor intact" true
    (Checkpoint.validate (Filename.concat dir (Checkpoint.filename ~step:2)));
  (* nothing left to prune: the error must propagate, not loop *)
  let dir2 = tmpdir "enospc_empty" in
  faults.Faults.ckpt_enospc <- 1;
  match Checkpoint.write ~faults ~dir:dir2 ~step:1 ~time:0.1 f with
  | _ -> Alcotest.fail "expected ENOSPC to propagate"
  | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ()

let test_stale_latest_pointer_ignored () =
  let dir = tmpdir "stale_ptr" in
  let f = [ mk_field () ] in
  let info = Checkpoint.write ~dir ~step:7 ~time:0.7 f in
  (match Checkpoint.latest_path ~dir with
  | Some p ->
      Alcotest.(check string) "pointer names the newest" info.Checkpoint.path p
  | None -> Alcotest.fail "fresh pointer should be trusted");
  (* pointer outlives its target: reported absent, never handed out *)
  Out_channel.with_open_text (Filename.concat dir "latest") (fun oc ->
      Out_channel.output_string oc "ckpt_99999999.vmdg\n");
  Alcotest.(check (option string))
    "lying pointer ignored" None
    (Checkpoint.latest_path ~dir);
  (match Checkpoint.find_latest ~dir with
  | Some i ->
      Alcotest.(check int) "checksum scan still finds the real one" 7
        i.Checkpoint.step
  | None -> Alcotest.fail "find_latest lost the checkpoint");
  (* pointer names a checkpoint that later rotted on disk *)
  Out_channel.with_open_text (Filename.concat dir "latest") (fun oc ->
      Out_channel.output_string oc (Checkpoint.filename ~step:7));
  Faults.corrupt_byte info.Checkpoint.path ~at:60;
  Alcotest.(check (option string))
    "pointer to rotted target ignored" None
    (Checkpoint.latest_path ~dir)

(* --- run hardening -------------------------------------------------------- *)

let test_run_max_steps_valve () =
  let app = App.create (small_spec ()) in
  match App.run ~max_steps:3 app ~tend:100.0 with
  | () -> Alcotest.fail "expected max_steps failure"
  | exception Failure m ->
      Alcotest.(check bool) "mentions max_steps" true (contains ~sub:"max_steps" m)

let () =
  Alcotest.run "dg_resilience"
    [
      ( "health",
        [
          Alcotest.test_case "clean scan" `Quick test_health_clean;
          Alcotest.test_case "NaN/Inf counts" `Quick test_health_counts;
          Alcotest.test_case "energy jump" `Quick test_energy_jump;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip bit-exact" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "on-disk bytes pinned" `Quick
            test_checkpoint_bytes_pinned;
          Alcotest.test_case "corruption detected" `Quick test_checkpoint_detects_corruption;
          Alcotest.test_case "truncation detected" `Quick test_checkpoint_detects_truncation;
          Alcotest.test_case "find_latest skips invalid" `Quick test_find_latest_skips_invalid;
          Alcotest.test_case "crash mid-write" `Quick test_crash_mid_write_leaves_no_ckpt;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "phase field == uniform twin, bytewise" `Quick
            test_phase_field_bytes;
          Alcotest.test_case "bad magic" `Quick test_record_bad_magic;
          Alcotest.test_case "v0 magic rejected with a clean Failure" `Quick
            test_record_v0_rejected;
          Alcotest.test_case "bad version" `Quick test_record_bad_version;
          Alcotest.test_case "truncated" `Quick test_record_truncated;
        ] );
      ( "restart",
        [
          Alcotest.test_case "bit-exact resume" `Quick test_restart_bit_exact;
          Alcotest.test_case "uniform-layout checkpoint restores bitwise" `Quick
            test_restore_uniform_layout;
          Alcotest.test_case "shape mismatch rejected" `Quick test_restore_shape_mismatch;
          Alcotest.test_case "resume skips the initial projection" `Quick
            test_resume_skips_projection;
        ] );
      ( "retry",
        [
          Alcotest.test_case "NaN at step k still reaches tend" `Quick
            test_rollback_retry_reaches_tend;
          Alcotest.test_case "clean run: no retries" `Quick
            test_resilient_clean_run_no_retries;
          Alcotest.test_case "periodic checkpoints" `Quick test_resilient_checkpoints;
          Alcotest.test_case "checkpoint cadence follows healthy windows" `Quick
            test_checkpoint_cadence;
          Alcotest.test_case "poisoned initial state rejected" `Quick
            test_initial_nan_rejected;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "tier 0 absorbs negativity, zero rollbacks" `Quick
            test_tier0_absorbs_negativity;
          Alcotest.test_case "detect-only escalates to tier 1" `Quick
            test_detect_escalates_to_tier1;
          Alcotest.test_case "tier-1 run pinned bitwise" `Quick
            test_tier1_run_pinned;
          Alcotest.test_case "tier 2 restores the step-4 checkpoint" `Quick
            test_tier2_restores_checkpoint;
          Alcotest.test_case "tier 3 aborts with last-good on disk" `Quick
            test_tier3_aborts;
        ] );
      ( "ladder core",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_escalation;
            prop_dt_ceiling;
            prop_checkpoint_cadence;
            prop_window_cadence;
          ] );
      ( "supervisor",
        [
          Alcotest.test_case "SIGTERM -> checkpoint -> bit-exact resume" `Quick
            test_sigterm_stop_then_bit_exact_restart;
          Alcotest.test_case "max-wall budget stops the run" `Quick
            test_max_wall_stops_run;
          Alcotest.test_case "first stop request wins" `Quick
            test_supervisor_first_stop_wins;
        ] );
      ( "retention",
        [
          Alcotest.test_case "keep_last prunes oldest" `Quick
            test_keep_last_retention;
          Alcotest.test_case "ENOSPC prunes then retries" `Quick
            test_enospc_prunes_then_succeeds;
          Alcotest.test_case "stale latest pointer ignored" `Quick
            test_stale_latest_pointer_ignored;
        ] );
      ( "run-guards",
        [
          Alcotest.test_case "max_steps valve" `Quick test_run_max_steps_valve;
        ] );
    ]
