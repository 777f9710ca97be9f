(* Deterministic fault injection: the test harness for the resilience
   machinery.  Each fault is armed once (one-shot) so a rollback/retry that
   replays the same steps does not re-trigger it — exactly the semantics of
   a transient soft error or a killed process.

   Faults are armed per job slice by [Dg_serve.Job.faults] from a job
   file's [fault_*] fields (vmdg serve), and directly by the tests and the
   chaos campaigns.  State faults strike the first state field (the first
   species' distribution). *)

module Field = Dg_grid.Field

exception Injected of string

let () =
  Printexc.register_printer (function
    | Injected what -> Some (Printf.sprintf "Dg_resilience.Faults.Injected(%s)" what)
    | _ -> None)

type crash =
  | Crash_before_rename (* checkpoint tmp fully written, never renamed *)
  | Crash_truncate of int (* checkpoint tmp cut to the first k bytes *)

type t = {
  mutable nan_step : int option;
  mutable nan_fired : bool;
  mutable neg_step : int option;
  mutable neg_fired : bool;
  mutable ckpt_crash : crash option;
  mutable ckpt_enospc : int;
  mutable crash_step : int option;
  mutable crash_fired : bool;
  mutable hang_step : int option;
  mutable hang_s : float;
  mutable hang_fired : bool;
}

let none () =
  {
    nan_step = None;
    nan_fired = false;
    neg_step = None;
    neg_fired = false;
    ckpt_crash = None;
    ckpt_enospc = 0;
    crash_step = None;
    crash_fired = false;
    hang_step = None;
    hang_s = 2.0;
    hang_fired = false;
  }

let armed t =
  (t.nan_step <> None && not t.nan_fired)
  || (t.neg_step <> None && not t.neg_fired)

(* Every [maybe_*] below that fires disarms itself and counts itself. *)
let injected () = Dg_obs.Obs.count "resilience.faults_injected" 1

(* Poison one coefficient of the first state field.  The target is the
   first coefficient of a mid-domain INTERIOR cell: a ghost-layer NaN would
   be silently healed by the next ghost synchronization and the fault would
   test nothing. *)
let maybe_inject_nan t ~step fields =
  match t.nan_step with
  | Some k when (not t.nan_fired) && step >= k ->
      t.nan_fired <- true;
      injected ();
      let fld = List.hd fields in
      let grid = Field.grid fld in
      let mid = Array.map (fun n -> n / 2) (Dg_grid.Grid.cells grid) in
      (Field.data fld).(Field.offset fld mid) <- Float.nan
  | _ -> ()

(* Drive one cell's expansion strongly negative at its control nodes while
   leaving the cell AVERAGE untouched: mode 0 (the mean) is kept and mode 1
   is set to a large negative slope.  This is exactly the failure a
   positivity limiter repairs at tier 0 — the state stays finite and the
   mean stays positive, but pointwise f < 0.  Targets a mid-domain interior
   cell for the same reason as the NaN fault. *)
let maybe_inject_negative t ~step fields =
  match t.neg_step with
  | Some k when (not t.neg_fired) && step >= k ->
      t.neg_fired <- true;
      injected ();
      let fld = List.hd fields in
      let grid = Field.grid fld in
      let mid = Array.map (fun n -> n / 2) (Dg_grid.Grid.cells grid) in
      let d = Field.data fld in
      let off = Field.offset fld mid in
      if Field.ncomp fld > 1 then
        d.(off + 1) <- -.((Float.abs d.(off) *. 50.0) +. 1.0)
      else d.(off) <- -.Float.abs d.(off)
  | _ -> ()

(* Simulated process death: raise out of the step loop so the slice dies
   with an uncaught-looking exception while the state and checkpoints on
   disk stay exactly as a SIGKILL would leave them. *)
let maybe_crash t ~step =
  match t.crash_step with
  | Some k when (not t.crash_fired) && step >= k ->
      t.crash_fired <- true;
      injected ();
      raise (Injected (Printf.sprintf "crash bomb at step %d" step))
  | _ -> ()

(* Simulated hang: stall the caller for [hang_s] seconds without touching
   the state.  From the watchdog's point of view this is indistinguishable
   from a livelocked or page-thrashing slice — the heartbeat simply stops
   advancing. *)
let maybe_hang t ~step =
  match t.hang_step with
  | Some k when (not t.hang_fired) && step >= k ->
      t.hang_fired <- true;
      injected ();
      Unix.sleepf (Float.max 0.0 t.hang_s)
  | _ -> ()

(* On-disk corruption primitives (simulate torn writes and bit rot on files
   that were already renamed into place). *)

let truncate_file path ~keep =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let keep = max 0 (min keep (String.length s)) in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub s 0 keep))

let corrupt_byte path ~at =
  let s = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  if at < 0 || at >= Bytes.length s then
    invalid_arg "Faults.corrupt_byte: offset out of range";
  Bytes.set s at (Char.chr (Char.code (Bytes.get s at) lxor 0xff));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc s)
