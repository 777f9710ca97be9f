(** Crash-consistent checkpoint sets, and the one owner of their on-disk
    format: the whole evolved state (all species distributions + EM field)
    with step/time, encoded into one buffer (header, one record per field
    with its grid, ncomp and nghost, FNV-1a trailer) and written as
    temp-file + fsync + atomic rename, plus a [latest] pointer and a
    restart scan that only trusts checkpoints whose checksum verifies.

    A kill at any point leaves either a stale [.tmp] (ignored on restart)
    or a fully valid checkpoint — never a half-checkpoint that restart
    would load. *)

type info = { path : string; step : int; time : float }

val filename : step:int -> string
(** [ckpt_<step>.vmdg] (zero-padded so lexicographic = numeric order). *)

val job_dir : root:string -> job:string -> string
(** The (created) per-job checkpoint directory [root/jobs/<id>] used by the
    job engine: one namespace per job under a shared root, so preemption,
    crash retry, and restart always resolve the same directory.  [job] is
    sanitized to [A-Za-z0-9._-] (path separators and leading dots masked
    with '_'), so a hostile id cannot escape [root]. *)

val write :
  ?faults:Faults.t ->
  ?keep_last:int ->
  dir:string ->
  step:int ->
  time:float ->
  Dg_grid.Field.t list ->
  info
(** Write one checkpoint (creating [dir] if needed) and atomically update
    the [latest] pointer.  Each field is recorded padded by its widest
    ghost width in every dimension, with +0 where it stores no cell (a
    phase-space field's velocity ghosts), so the bytes do not depend on
    how narrowly the field is padded.  Files [resilience.checkpoint_writes] /
    [resilience.checkpoint_write_s] and a ["checkpoint_write"] span via
    {!Dg_obs.Obs}.  [?faults] opens the simulated crash window
    ({!Faults.crash}): the tmp file is left behind (possibly truncated),
    the rename never happens, and {!Faults.Injected} is raised; its
    [ckpt_enospc] bomb makes the next writes fail with [ENOSPC].

    On [ENOSPC] (real or injected) the oldest checkpoint in [dir] is
    deleted and the write retried — counted as
    [resilience.checkpoint_enospc_retries] — until it fits or nothing is
    left to prune (then the error propagates).  With [?keep_last], after a
    successful write only the newest [keep_last] checkpoints are retained
    (oldest deleted first, counted as [resilience.checkpoints_pruned]).
    @raise Invalid_argument if [keep_last < 1]. *)

val prune : dir:string -> keep_last:int -> int
(** Keep only the newest [keep_last] checkpoints in [dir], deleting older
    ones (and their stale tmp files) oldest-first; returns how many were
    deleted.  @raise Invalid_argument if [keep_last < 1]. *)

val read : string -> Dg_grid.Field.t list * int * float
(** Load a checkpoint: [(fields, step, time)], each field padded
    uniformly by its record's nghost ({!Dg_grid.Field.create}); copy it
    into a narrower field with {!Dg_grid.Field.copy_stored}.
    @raise Failure on checksum mismatch, truncation, bad magic (including
    the retired v0 field record), unsupported version, a non-zero flag
    word, or an implausible header — a checkpoint that reads back is
    bit-exactly what was written. *)

val validate : string -> bool
(** Does {!read} succeed? *)

val load_latest : dir:string -> (info * Dg_grid.Field.t list) option
(** Newest checkpoint in [dir] that passes validation, with its decoded
    fields (invalid or truncated ones are skipped and counted under
    [resilience.invalid_checkpoints_skipped]).  A restart restores from
    these fields without reading the file again. *)

val find_latest : dir:string -> info option
(** {!load_latest} without the fields. *)

val latest_path : dir:string -> string option
(** The checkpoint named by the [latest] pointer file — but only if that
    target exists and its checksum verifies.  A stale or lying pointer is
    counted under [resilience.stale_latest_pointer] and reported as [None]
    (restart proper uses {!find_latest}, which never trusts pointers). *)
