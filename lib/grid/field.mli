(** DG coefficient fields: per-cell blocks of [ncomp] expansion
    coefficients stored contiguously over a ghost-padded grid.

    Each dimension [d] has its own ghost width [ghost f d]; ghost cells are
    addressed with out-of-range coordinates
    ([-ghost f d .. cells.(d) + ghost f d - 1]) and refreshed by
    {!sync_ghosts}.  One layer is exactly what the DG surface terms need
    (the communication pattern the paper's decomposition exploits), and
    only where a face can have an outside neighbour: velocity-space
    boundaries are zero-flux, so no sweep reads a velocity ghost.
    Phase-space fields come from {!create_phase} and are padded in the
    configuration dimensions only; configuration-space fields come from
    {!create} and are padded in every dimension. *)

(** Per-side boundary condition used by {!sync_ghosts}. *)
type bc =
  | Periodic  (** wrap around *)
  | Copy  (** zero-gradient: ghost := adjacent interior *)
  | Zero  (** ghost := 0 (open / absorbing boundary) *)

type t

val create : ?nghost:int -> Grid.t -> ncomp:int -> t
(** Allocate a zero field padded by [nghost] layers (default 1) in every
    dimension. *)

val create_phase : cdim:int -> Grid.t -> ncomp:int -> t
(** Allocate a zero phase-space field: one ghost layer in each of the
    first [cdim] (configuration) dimensions, none in the velocity
    dimensions.  The one constructor of phase-space fields.
    @raise Invalid_argument unless [0 <= cdim <= Grid.ndim grid]. *)

val grid : t -> Grid.t
val ncomp : t -> int

val ghost : t -> int -> int
(** Ghost width of one dimension. *)

val nghost : t -> int
(** The widest ghost width over all dimensions (a {!create} field's
    uniform width). *)

val data : t -> float array
(** The raw storage (including ghosts); use {!offset} to address cells. *)

val offset : t -> int array -> int
(** Offset (in floats) of a cell's coefficient block; accepts ghost
    coordinates.  Bounds-checked with [assert] (active in dev builds). *)

val checked_cell_offset : t -> int array -> int
(** As {!offset} but always validates the coordinate rank and every
    per-dimension bound, raising [Invalid_argument] on violation —
    independent of build profile. *)

val unsafe_cell_offset : t -> int array -> int
(** Unchecked offset of a cell's coefficient block, for the zero-copy
    kernel hot path.

    Invariant: callers must pass a coordinate array of exactly
    [Grid.ndim (grid t)] entries with each [c.(d)] in
    [-ghost t d .. cells.(d) + ghost t d - 1].  A phase-space field has no
    velocity ghosts: a velocity coordinate of -1 does not raise here, it
    silently addresses the neighbouring cell's block.  The generated C
    kernels then read and write [data t] through unchecked pointers at
    literal offsets within the [ncomp]-float block starting here, so
    memory safety is established by this offset and by the [cell_step]
    arithmetic that derives its neighbours from it — every in-block index
    is a compile-time literal [< ncomp].  The sweep computes it once per
    pencil of cells.

    Setting the environment variable [VMDG_BOUNDS_CHECK=1] (read once at
    program start) makes this function behave exactly like
    {!checked_cell_offset}, restoring full per-coordinate validation on
    the hot path for debugging. *)

val unsafe_leading_offset : t -> int array -> int
(** As {!unsafe_cell_offset} for the cell at the first [Grid.ndim (grid
    t)] entries of [c], which may be longer: the configuration cell of
    phase-space coordinates, for fields on the configuration grid.
    [VMDG_BOUNDS_CHECK=1] validates each of those coordinates, and that
    [c] has at least that many entries. *)

val cell_step : t -> int -> int
(** [cell_step t d]: the floats between the blocks of two cells that are
    neighbours in dimension [d], so that the block of [c + e_d] starts
    [cell_step t d] after that of [c]. *)

val bounds_check : bool
(** Whether [VMDG_BOUNDS_CHECK=1] was set at program start. *)

val check_walked_offset : t -> int array -> dir:int -> by:int -> int -> unit
(** [check_walked_offset t c ~dir ~by off] validates an offset derived by
    [cell_step] arithmetic: every coordinate of the cell [c + by e_dir]
    must lie in [t]'s stored range, and its block must start at [off].
    Allocates nothing unless it raises.
    @raise Invalid_argument otherwise. *)

val get : t -> int array -> int -> float
val set : t -> int array -> int -> float -> unit
val read_block : t -> int array -> float array -> unit
val write_block : t -> int array -> float array -> unit
val accumulate_block : t -> int array -> ?scale:float -> float array -> unit
val fill : t -> float -> unit
val copy_into : src:t -> dst:t -> unit
(** Copy the whole storage; both fields must have the same layout. *)

val clone : t -> t

val axpy : s:float -> src:t -> dst:t -> unit
(** [dst := dst + s * src] over the whole storage. *)

val scale : t -> float -> unit

val sync_ghosts : t -> (bc * bc) array -> unit
(** Refresh all ghost layers given per-dimension (lower, upper) boundary
    conditions; corners are handled by the dimension-by-dimension passes.
    Each ghost layer is copied as contiguous slabs; dimensions without
    ghosts are skipped (their conditions are ignored). *)

val copy_stored : src:t -> dst:t -> unit
(** Copy every cell [dst] stores, interior and ghosts, from [src] at the
    same coordinates; [src] may be padded more widely than [dst].
    @raise Invalid_argument unless the cell counts and [ncomp] match and
    [src] stores every cell of [dst]. *)

val iter_padded : t -> nghost:int -> (float -> unit) -> unit
(** [iter_padded f ~nghost k] calls [k] on each float of the storage a
    {!create} field with [~nghost] would have, in storage order: [f]'s
    value where [f] stores the cell, +0 where it does not.
    @raise Invalid_argument if some ghost width of [f] exceeds [nghost]. *)

val l2_norm : t -> float
(** Physical L2 norm of the expansion (orthonormal reference bases). *)
