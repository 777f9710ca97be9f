(** The one hyperbolic DG sweep, shared by every phase-space flux term in
    face form: the Vlasov streaming and acceleration terms ({!Solver}) and
    the drift of the Dougherty collision operator
    ([Dg_collisions.Lbo]).

    For each cell, and each direction in array order, the sweep fills the
    flux expansion alpha once, applies the volume term, and handles the
    cell's lower face with {!Dg_dispatch.Dispatch.face_flux} and the two
    lifts.  In configuration directions the last cell also takes its
    upper face against the ghost layer.  Velocity-domain faces carry no
    flux, so no velocity ghost is read.  The body is driven only by the
    per-direction data below. *)

module Layout = Dg_kernels.Layout
module Tensors = Dg_kernels.Tensors
module Field = Dg_grid.Field

(** One direction of a sweep, with a per-call context ['a]. *)
type 'a dir = {
  dir : int;  (** phase-space direction *)
  ops : Dg_dispatch.Dispatch.dir_ops;
  fill : 'a -> int array -> float array -> float array -> unit;
      (** [fill ctx c vcenter alpha]: the flux expansion of cell [c]
          (velocity-cell centers [vcenter]) into [alpha] *)
  speed : float array -> float array -> float;
      (** [speed vcenter alpha]: the penalty speed of a face whose flux
          expansion is [alpha] (0 for a central flux) *)
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
  Layout.t ->
  'a dir array ->
  'a ->
  f:Field.t ->
  out:Field.t ->
  unit
(** [run lay dirs ctx ~f ~out] accumulates the terms of [dirs] into [out]
    (+=), sweeping the grid of [f].  Configuration ghosts of [f] must be
    synchronized.  All scratch is allocated per call.  With [timers], the
    phases are timed (fill, volume, surface: lower face, upper ghost face
    and boundary hooks). *)
