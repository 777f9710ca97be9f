(** Modal orthonormal bases on the reference cell [-1,1]^dim.

    Each basis function is a product of normalized Legendre polynomials
    identified by a multi-index; the three families of the paper differ
    only in which multi-indices are kept:

    - {!Tensor}: max degree per dimension <= p, N_p = (p+1)^d;
    - {!Serendipity}: superlinear degree <= p (Arnold & Awanou 2011) —
      the paper's workhorse (112 DOF at d=5, p=2);
    - {!Maximal_order}: total degree <= p, N_p = C(p+d, d).

    All three are orthonormal subsets of the tensor basis, which is what
    makes every DG coupling tensor factorize into exact 1D integrals. *)

type family = Tensor | Serendipity | Maximal_order

val family_name : family -> string

val family_of_string : string -> family
(** Accepts ["tensor"], ["serendipity"]/["ser"], ["maximal-order"]/["max"].
    @raise Invalid_argument otherwise. *)

type t

val make : family:family -> dim:int -> poly_order:int -> t
val num_basis : t -> int
val dim : t -> int
val poly_order : t -> int
val family : t -> family

val index : t -> int -> Dg_util.Multi_index.t
(** Multi-index of basis function [k]; mode 0 is the constant. *)

val find : t -> int array -> int option
(** Position of a multi-index in the basis, if present. *)

val max_1d_degree : t -> int
(** Largest per-dimension degree (sizes the Legendre tables). *)

val count_closed_form : family:family -> dim:int -> poly_order:int -> int
(** Closed-form dimension count (cross-checks the enumeration). *)

val eval : t -> int -> float array -> float
(** [eval t k xi] evaluates basis function [k] at a reference point. *)

val eval_all : t -> float array -> float array -> unit
(** [eval_all t xi out] fills [out] (length {!num_basis}) with all basis
    values at [xi], sharing the per-dimension Legendre evaluations. *)

val eval_expansion : t -> float array -> float array -> float
(** Reconstruct the expansion [sum_k coeffs.(k) w_k(xi)]. *)

val to_mpoly : t -> int -> Dg_cas.Mpoly.t
(** Basis function as an explicit polynomial (tests, codegen). *)

(** {1 L2 projection of pointwise data}

    The scheme itself is quadrature-free; tensor Gauss quadrature is used
    only to project non-polynomial data (initial conditions, the
    Poisson_es field, the BGK Maxwellian).  A {!projector} tabulates the
    rule and every basis function at every point once, so projecting many
    cells of one basis costs one pass over the table per cell. *)

type projector
(** The Gauss points and weights of one basis, with every basis function
    evaluated at every point: [nquad^dim * num_basis] floats. *)

val projector : ?nquad:int -> t -> projector
(** Tensor Gauss rule with [nquad] points per dimension (default
    [poly_order + 3]; exact for polynomials of degree [<= 2 nquad - 1]). *)

val project_with : projector -> (float array -> float) -> float array
(** [project_with pr f] is the L2 projection of [f], a function of the
    reference-cell point, onto the projector's basis.  [f] is called once
    per Gauss point, in point order.  The point array passed to [f] is
    shared by every call on [pr]: [f] must read it and neither mutate it
    nor keep it.  The result is a fresh array. *)

val project_vec_with :
  projector -> ncomp:int -> (float array -> float array) -> float array
(** [project_vec_with pr ~ncomp f] projects the [ncomp] components of a
    vector function, calling [f] once per Gauss point (in point order,
    with the same sharing rule as {!project_with}).  Component [c]'s
    coefficients are at [c * num_basis + k], bitwise equal to
    [project_with pr (fun x -> (f x).(c))]. *)

val project : ?nquad:int -> t -> (float array -> float) -> float array
(** [project ?nquad t f] is [project_with (projector ?nquad t) f]: one
    projection with a table built for it (tests, one-off use). *)

val cell_average : t -> float array -> float
(** Mean of the expansion over the reference cell. *)

val pp : Format.formatter -> t -> unit
