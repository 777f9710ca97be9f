(** Construction of the exact coupling tensors of the modal DG scheme —
    the heart of the paper.

    Because every basis function is a product of 1D normalized Legendre
    polynomials, each tensor entry is an exact product of 1D table values
    (alias-free) and the tensors are extremely sparse (matrix-free,
    quadrature-free).  Zero entries are skipped at build time; this is
    the sparsification-by-orthonormality argument of Section II. *)

module Modal = Dg_basis.Modal

(** {1 Flux support sets} *)

val streaming_support : Layout.t -> dir:int -> int array
(** Basis indices carrying the streaming flux v_d (constant + paired
    linear mode). *)

val acceleration_support : Layout.t -> vdir:int -> int array
(** Basis indices carrying q/m (E + v x B): configuration modes plus
    single-linear velocity modes transverse to [vdir]. *)

val drift_support : Layout.t -> vdir:int -> int array
(** Basis indices carrying the collisional drift nu (u_j(x) - v_j) along
    velocity dimension [vdir] (0-based): the configuration modes in
    [cfg_to_phase] order, then the mode linear in v_j. *)

(** {1 Volume tensors} *)

val volume : Modal.t -> support:int array -> dir:int -> Sparse.t3
(** A_{lmn} = int w_m w_n d(w_l)/dxi_dir, m restricted to [support]. *)

val volume_linear : Modal.t -> dir:int -> Sparse.t2
(** D_{ln} = int w_n d(w_l)/dxi_dir (constant-coefficient linear systems:
    Maxwell). *)

val volume_diffusion2 : Modal.t -> support:int array -> dir:int -> Sparse.t3
(** int w_m w_n d2(w_l) along [dir] (twice-integrated recovery scheme). *)

val mass_triple : Modal.t -> Sparse.t3
(** T_{lmn} = int w_l w_m w_n: weak multiplication/division. *)

(** {1 Surface tensors} *)

type side = Lo | Hi

val surface :
  Modal.t -> support:int array -> dir:int -> s_l:side -> s_n:side -> Sparse.t3
(** Face tensor with the test function traced at [s_l], the distribution
    at [s_n], and the flux at the left cell's upper face. *)

val penalty : Modal.t -> dir:int -> s_l:side -> s_n:side -> Sparse.t2
(** Value-trace pair tensor for Lax-Friedrichs penalties. *)

(** Test-function trace selector for {!surface_stencil}. *)
type lfactor = Val of side | Der of side

val surface_stencil :
  Modal.t ->
  support:int array ->
  dir:int ->
  lfactor:lfactor ->
  nstencil:float array ->
  Sparse.t3
(** Face tensor whose normal-direction distribution trace is an arbitrary
    1D stencil (recovery value/slope stencils). *)

(** {1 The face form of the Vlasov surface term}

    alpha does not depend on the face-normal coordinate, so each face
    integral factors exactly: restrict f_L and f_R to the
    (pdim-1)-dimensional face basis, form one flux there, and lift it back
    into both cells.  [surface ~s_l ~s_n] equals lift(s_l) . triple .
    restrict(s_n) and [penalty ~s_l ~s_n] equals lift(s_l) .
    restrict(s_n), entry for entry. *)

type 'a face_scalars = {
  mul : 'a -> 'a -> 'a;
  is_zero : 'a -> bool;
  edge_at : int -> side -> 'a;  (** 1D basis polynomial of degree n at -1 / +1 *)
  trip_at : int -> int -> int -> 'a;  (** int_{-1}^{1} P_a P_b P_c *)
}
(** The 1D ingredients of a face form, over any scalar type. *)

type 'a face_entries = {
  face_of : int array;  (** face index of each volume basis function *)
  n_face : int;  (** face-basis size *)
  r_lo : (int * int * 'a) list;  (** restriction: (face row, volume col, c) *)
  r_hi : (int * int * 'a) list;
  tri : (int * int * int * 'a) list;
      (** face triple: (face row, alpha index, face col, c), with
          edge(m_dir, +1) folded into c *)
  l_lo : (int * int * 'a) list;  (** lift: (volume row, face col, c) *)
  l_hi : (int * int * 'a) list;
}

val face_entries :
  'a face_scalars -> Modal.t -> support:int array -> dir:int -> 'a face_entries
(** The face form's entries from the given 1D scalars: the float kernels
    use the normalized Legendre tables, the exact-table tests rationals
    over unnormalized Legendre polynomials.  Face indices number the
    distinct face-tangential multi-indices in order of first appearance. *)

type face = {
  nface : int;
  restrict_lo : Sparse.t2;  (** face <- volume, trace at xi_dir = -1 *)
  restrict_hi : Sparse.t2;  (** face <- volume, trace at xi_dir = +1 *)
  triple : Sparse.t3;  (** (face row, volume alpha index, face column) *)
  lift_lo : Sparse.t2;  (** volume <- face, weights P~_{l_dir}(-1) *)
  lift_hi : Sparse.t2;  (** volume <- face, weights P~_{l_dir}(+1) *)
}

val face : Modal.t -> support:int array -> dir:int -> face
val face_nnz : face -> int

(** {1 Per-direction bundles} *)

type dir_kernels = {
  dir : int;
  support : int array;
  vol : Sparse.t3;
  face : face;
}

val make_dir : Layout.t -> dir:int -> dir_kernels
val dir_nnz : dir_kernels -> int

(** {1 Velocity-moment tables} *)

type vtables = { i0 : float array; i1 : float array; i2 : float array }

val vspace_tables : int -> vtables
(** Exact int xi^r P~_n dxi for r = 0, 1, 2, n <= nmax. *)
