(** Kernel dispatch: specialized unrolled kernels (lib/genkernels) when the
    registry has a bundle for [(family, poly_order, cdim, vdim, dir)],
    interpreted sparse tensors otherwise.  The registry holds every
    direction of every standard configuration
    ([Dg_codegen.Codegen.standard_configs]).  Selected once per direction
    at solver creation — the hot path pays a single constructor match. *)

module K = Dg_genkernels.Kernels
module Layout = Dg_kernels.Layout
module Sparse = Dg_kernels.Sparse
module Tensors = Dg_kernels.Tensors

type t3_op = Gen3 of K.t3_fn | Interp3 of Sparse.t3
type t2_op = Gen2 of K.t2_fn | Interp2 of Sparse.t2

val apply_t3 :
  t3_op ->
  scale:float ->
  float array ->
  float array ->
  foff:int ->
  float array ->
  ooff:int ->
  unit
(** [apply_t3 op ~scale alpha f ~foff out ~ooff]:
    [out.(ooff + l) += scale * c * alpha.(m) * f.(foff + n)]. *)

val apply_t2 :
  t2_op -> scale:float -> float array -> foff:int -> float array -> ooff:int -> unit

type dir_ops = {
  specialized : bool;  (** a generated bundle backs this direction *)
  vol : t3_op;
  vol_stream : K.stream_fn option;
      (** specialized streaming volume kernel (configuration directions of
          specialized bundles): takes cell geometry, not a flux expansion *)
  nface : int;  (** face-basis size (scratch length of the face ops) *)
  restrict_lo : t2_op;  (** face <- volume trace at xi_dir = -1 *)
  restrict_hi : t2_op;  (** face <- volume trace at xi_dir = +1 *)
  face : t3_op;  (** the face triple: (face row, alpha index, face column) *)
  lift_lo : t2_op;  (** volume <- face, into the cell above the face *)
  lift_hi : t2_op;  (** volume <- face, into the cell below the face *)
  mults : int;  (** multiplications per cell-direction update; 0 if interpreted *)
}

val find_bundle : Layout.t -> dir:int -> K.bundle option

val interpreted : Tensors.dir_kernels -> dir_ops
(** The interpreted sparse applications of a direction's tensors, for
    any flux support (the registry covers only the Vlasov supports). *)

val make : use_generated:bool -> Layout.t -> dir:int -> Tensors.dir_kernels -> dir_ops
(** Dispatch for one direction: the generated bundle when [use_generated]
    and {!find_bundle} hits; else the interpreted tensors [dk].

    Obs counters (when tracing is enabled): [dispatch.specialized_dirs] /
    [dispatch.interpreted_dirs] per selected direction;
    [kernels.cse_saved_mults] (multiplications the codegen CSE pass
    removed) and [kernels.chunks] (part functions emitted) per specialized
    direction. *)

val face_flux :
  dir_ops ->
  rdx:float ->
  lam:float ->
  float array ->
  float array ->
  foff_l:int ->
  foff_r:int ->
  float array ->
  unit
(** [face_flux ops ~rdx ~lam alpha f ~foff_l ~foff_r face]: the numerical
    flux of the face between the cells at [foff_l] (below) and [foff_r]
    (above), on the face basis.  With a = R_hi f_L and b = R_lo f_R it
    forms S = a + b and J = b - a in [face.(0 ..)] and [face.(nface ..)],
    then G = rdx (F alpha S) - lam rdx J in [face.(2 nface ..)], from
    which [lift_hi] (scale -1) updates the lower cell and [lift_lo] the
    upper one.  [face] needs [3 * nface] floats; nothing is allocated. *)
