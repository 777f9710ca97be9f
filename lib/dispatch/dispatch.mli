(** Kernel dispatch: specialized unrolled kernels (lib/genkernels) when the
    registry has a bundle for [(family, poly_order, cdim, vdim, dir)],
    interpreted sparse tensors otherwise.  The registry holds every
    direction of every standard configuration
    ([Dg_codegen.Codegen.standard_configs]).  Selected once per direction
    at solver creation — the hot path pays a single constructor match,
    then calls the external of the kernel's kind with its id. *)

module K = Dg_genkernels.Kernels
module Layout = Dg_kernels.Layout
module Sparse = Dg_kernels.Sparse
module Tensors = Dg_kernels.Tensors

type t3_op = Gen3 of int | Interp3 of Sparse.t3
(** A 3-tensor application: a kernel id of [K.t3], or interpreted. *)

type t2_op = Gen2 of int | Interp2 of Sparse.t2
(** A 2-tensor application: a kernel id of [K.t2], or interpreted. *)

type dir_ops = {
  specialized : bool;  (** a generated bundle backs this direction *)
  vol : t3_op;
  vol_stream : int option;
      (** kernel id of the specialized streaming volume kernel
          ([K.stream]; configuration directions of specialized bundles):
          takes cell geometry, not a flux expansion *)
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
    removed) and [kernels.chunks] (kernel parts emitted) per specialized
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
