(** The one hyperbolic DG sweep, shared by every phase-space flux term in
    face form: the Vlasov streaming and acceleration terms ({!Solver}) and
    the drift of the Dougherty collision operator
    ([Dg_collisions.Lbo]), and the kernel selection it runs on.

    For each cell, and each direction in array order, the sweep fills the
    flux expansion alpha once, applies the volume term, and handles the
    cell's lower face: the two restrictions, one numerical flux on the
    face basis, the two lifts.  In configuration directions the last cell
    also takes its upper face against the ghost layer.  Velocity-domain
    faces carry no flux, so no velocity ghost is read.  The body is driven
    only by the per-direction data below.  Cells are walked pencil by
    pencil along the last (velocity) dimension, whose configuration cell
    is fixed: block offsets are stepped, not recomputed per cell, and on
    generated kernels a cell-direction allocates nothing.

    The batch walk.  When a velocity direction's bundle has batch kernels
    (4-lane twins of its volume kernel and face triple; the registry
    emits them for the directions of at least
    [Dg_codegen.Codegen.batch_min_mults] multiplications), each pencil
    runs in batches of {!lanes} consecutive cells, the rest of it one
    cell at a time.  A batch takes the directions in order, each over all
    four cells.  A batched direction fills the four flux expansions into
    one scratch, applies the batched volume term, forms the four lower
    faces (restrictions per lane, the batched face triple, each lane's
    penalty term), then applies every lane's lift_lo, then every lane's
    lift_hi.  Any other direction runs its one-cell body lane by lane.
    The order argument: an output block receives, per direction in
    order, its own volume term and lower-face lift, and only then (its
    upper neighbour's turn) a lift_hi.  Across the pencil that neighbour
    lies in a later pencil.  Along it, it is the next lane, whose lift_hi
    comes after every lift_lo, or a later batch, provided the pencil
    direction is the last one swept ({!run} checks that).  Each lane of a
    batch kernel does its scalar twin's operations in the same order, so
    the batch walk's results are the one-cell walk's, bit for bit.

    Each tensor application of a direction is selected once, by {!select}
    or {!interpreted}: a generated unrolled kernel (lib/genkernels) when
    the registry holds the direction (it holds every direction of every
    [Dg_codegen.Codegen.standard_configs] entry), the interpreted sparse
    tensors otherwise.  The hot path pays one constructor match per
    tensor application, then calls the external of the kernel's kind
    with its id. *)

module Layout = Dg_kernels.Layout
module Tensors = Dg_kernels.Tensors
module Sparse = Dg_kernels.Sparse
module Field = Dg_grid.Field

type t3_op = Gen3 of int | Interp3 of Sparse.t3
(** A 3-tensor application: a kernel id of [Dg_genkernels.Kernels.t3],
    or interpreted. *)

type t2_op = Gen2 of int | Interp2 of Sparse.t2
(** A 2-tensor application: a kernel id of [Dg_genkernels.Kernels.t2],
    or interpreted. *)

(** The volume term of a direction. *)
type vol_op =
  | Stream of int
      (** kernel id of a specialized streaming volume kernel
          ([Dg_genkernels.Kernels.stream]; generated configuration
          directions): it folds the two-coefficient flux expansion into
          its literals, so it takes cell geometry, not alpha *)
  | Alpha of t3_op  (** the volume tensor applied to the flux expansion *)

(** The tensor applications of one phase-space direction, selected. *)
type ops = {
  vol : vol_op;
  nface : int;  (** face-basis size (scratch length of the face ops) *)
  restrict_lo : t2_op;  (** face <- volume trace at xi_dir = -1 *)
  restrict_hi : t2_op;  (** face <- volume trace at xi_dir = +1 *)
  face : t3_op;  (** the face triple: (face row, alpha index, face column) *)
  lift_lo : t2_op;  (** volume <- face, into the cell above the face *)
  lift_hi : t2_op;  (** volume <- face, into the cell below the face *)
  batch : Dg_genkernels.Kernels.batch option;
      (** the 4-lane batch twins of the volume kernel and the face triple
          ([Dg_genkernels.Kernels.t3_x4] ids), when the bundle has them
          (velocity directions of at least
          [Dg_codegen.Codegen.batch_min_mults] multiplications) *)
  mults : int option;
      (** [Some n]: a generated bundle backs the direction, with [n]
          multiplications per cell-direction update; [None]: interpreted *)
}

val interpreted : Tensors.dir_kernels -> ops
(** The interpreted sparse applications of a direction's tensors, for
    any flux support (the registry covers only the Vlasov supports). *)

val select : use_generated:bool -> Layout.t -> Tensors.dir_kernels -> ops
(** The ops of direction [dk.dir] of [lay]: the generated bundle when
    [use_generated] and the registry holds the direction, else
    [interpreted dk].

    Obs counters (when tracing is enabled): [dispatch.specialized_dirs] /
    [dispatch.interpreted_dirs] per selected direction, and
    [dispatch.batched_dirs] per generated direction with batch kernels;
    [kernels.cse_saved_mults] (multiplications the codegen CSE pass
    removed) and [kernels.chunks] (kernel parts emitted) per generated
    direction. *)

val apply_t3 :
  t3_op ->
  scale:float ->
  float array ->
  float array ->
  foff:int ->
  float array ->
  ooff:int ->
  unit
(** [apply_t3 op ~scale alpha f ~foff out ~ooff]: out(l) += scale
    sum T(l, m, n) alpha(m) f(n), on the blocks at [foff] and [ooff]. *)

val apply_t2 :
  t2_op ->
  scale:float ->
  float array ->
  foff:int ->
  float array ->
  ooff:int ->
  unit
(** [apply_t2 op ~scale f ~foff out ~ooff]: out(l) += scale sum T(l, n) f(n). *)

val face_flux :
  ops ->
  rdx:float ->
  lam:float ->
  float array ->
  float array ->
  foff_l:int ->
  foff_r:int ->
  float array ->
  unit
(** [face_flux ops ~rdx ~lam alpha f ~foff_l ~foff_r face]: the flux of
    the face between the cells at [foff_l] (below) and [foff_r] (above)
    on the face basis, into [face.(2 nface ..)] (its first [2 nface]
    entries are scratch); [lam] is the penalty speed.  The sweep inlines
    it; exposed for measuring the kernels in isolation. *)

val lanes : int
(** Cells per batch of the batch walk: 4, the lanes of the batch
    kernels. *)

val face_flux_x4 :
  ops ->
  Dg_genkernels.Kernels.batch ->
  k0:int ->
  rdx:float ->
  lams:float array ->
  float array ->
  float array ->
  foff_l:int ->
  foff_r:int ->
  fstep:int ->
  float array ->
  unit
(** [face_flux_x4 ops b ~k0 ~rdx ~lams alpha4 f ~foff_l ~foff_r ~fstep
    face4]: {!face_flux} of lanes [k0 .. lanes-1] of a batch at once, lane
    k's face between the cells at [foff_l + k fstep] and
    [foff_r + k fstep], with flux expansion [alpha4.(k np ..)] ([alpha4]
    holds [lanes] of them) and penalty speed [lams.(k)], into
    [face4.(3 k nface + 2 nface ..)] ([face4] holds [lanes] face scratches
    of [3 nface]).  Per lane bitwise equal to {!face_flux}: only the face
    triple runs batched.  The sweep inlines it; exposed for measuring the
    kernels in isolation. *)

(** How the sweep bounds the penalty speed of a face from the flux
    expansion [a] of the cell that traces it.  The sweep evaluates it
    inline, with no call. *)
type speed =
  | No_penalty  (** central flux: 0 *)
  | Stream_speed of Dg_kernels.Flux.stream_ctx
      (** [Flux.streaming_max_speed]: |v_vd| + dv/2 at the cell's
          velocity centers *)
  | Bound of { support : int array; maxval : float array }
      (** sum over i of |a.(support.(i))| maxval.(i), in that order
          ([Flux.accel_max_speed] with its weights gathered to the
          support order) *)

(** One direction of a sweep, with a per-call context ['a]. *)
type 'a dir = {
  dir : int;  (** phase-space direction *)
  ops : ops;
  fill : 'a -> float array -> float array -> unit;
      (** [fill ctx vcenter alpha]: the flux expansion of the current cell
          (velocity-cell centers [vcenter]) into [alpha]; what depends on
          the configuration cell comes through [ctx], which the [pencil]
          hook of {!run} sets *)
  speed : speed;  (** the penalty speed of the direction's faces *)
  face_alpha : (float array -> float array -> unit) option;
      (** [face_alpha alpha out]: the expansion of the cell below the
          lower face, from the cell's own [alpha], when alpha is not
          single-valued across that face.  The face triple traces alpha
          at the upper face of the lower cell. *)
  volume : ('a -> float array -> foff:int -> float array -> ooff:int -> unit) option;
      (** extra volume terms, after the flux volume term *)
  face :
    ('a ->
    float array ->
    foff_l:int ->
    foff_r:int ->
    float array ->
    ooff_l:int ->
    ooff_r:int ->
    unit)
    option;
      (** extra terms on every face between two interior cells, after
          the flux is lifted *)
  boundary :
    ('a -> Tensors.side -> float array -> foff:int -> float array -> ooff:int -> unit)
    option;
      (** terms on the velocity-domain faces ([Lo] at the first cell,
          [Hi] at the last) of a velocity direction *)
}

(** Seconds spent in each phase of a traced sweep. *)
type timers = {
  mutable since : float;
  mutable fill_s : float;
  mutable volume_s : float;
  mutable surface_s : float;
}

val timers : unit -> timers

val run :
  ?timers:timers ->
  ?pencil:('a -> int array -> unit) ->
  Layout.t ->
  'a dir array ->
  'a ->
  f:Field.t ->
  out:Field.t ->
  unit
(** [run lay dirs ctx ~f ~out] accumulates the terms of [dirs] into [out]
    (+=), sweeping the grid of [f] pencil by pencil: the cells that differ
    only in the last (velocity) coordinate, whose configuration cell is
    the same, in storage order.  [pencil ctx c] runs before each pencil
    with [c] its first cell, for the per-configuration-cell state of the
    fills.  Cells are visited in {!Dg_grid.Grid.iter_cells} order and
    directions in array order; where a direction has batch kernels, in
    batches of four cells along the pencil (above), with the same
    results.  Raises [Invalid_argument] if such a sweep's [dirs] holds
    the pencil direction anywhere but last.  Configuration ghosts of [f]
    must be synchronized.  All scratch is allocated per call; a cell-direction
    on generated kernels allocates nothing.  Block offsets are derived
    from one per pencil by [Field.cell_step]; with [VMDG_BOUNDS_CHECK=1]
    each is checked against its cell's coordinates
    ([Field.check_walked_offset]).  With [timers], the phases are timed
    (fill, volume, surface: lower face, upper ghost face and boundary
    hooks). *)
