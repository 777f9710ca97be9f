(* Modal orthonormal bases on the reference cell [-1,1]^dim.

   Each basis function is a product of normalized Legendre polynomials,
     w_k(xi) = prod_i P~_{m_i}(xi_i),
   identified by a multi-index m.  The three families of the paper differ
   only in which multi-indices are kept:

   - Tensor product:   max_i m_i <= p            (N_p = (p+1)^d)
   - Serendipity:      superlinear degree <= p   (Arnold & Awanou 2011)
   - Maximal order:    total degree <= p         (N_p = C(p+d, d))

   All three are orthonormal subsets of the tensor basis, which is what makes
   every coupling tensor factorize into exact 1D Legendre tables. *)

module Mi = Dg_util.Multi_index

type family = Tensor | Serendipity | Maximal_order

let family_name = function
  | Tensor -> "tensor"
  | Serendipity -> "serendipity"
  | Maximal_order -> "maximal-order"

let family_of_string = function
  | "tensor" -> Tensor
  | "serendipity" | "ser" -> Serendipity
  | "maximal-order" | "max" -> Maximal_order
  | s -> invalid_arg ("Modal.family_of_string: " ^ s)

type t = {
  family : family;
  dim : int;
  poly_order : int;
  indices : Mi.t array; (* basis multi-indices, constant mode first *)
  lookup : (int array, int) Hashtbl.t;
}

let keep family p m =
  match family with
  | Tensor -> true (* the enumeration box already bounds each component by p *)
  | Serendipity -> Mi.superlinear_degree m <= p
  | Maximal_order -> Mi.total_degree m <= p

let make ~family ~dim ~poly_order =
  assert (dim >= 1 && poly_order >= 0);
  let all = Mi.enumerate ~dim ~pmax:poly_order ~keep:(keep family poly_order) in
  (* Deterministic order: by total degree, then lexicographic.  Mode 0 is the
     constant, so coefficient 0 carries the cell average (up to norm). *)
  let sorted =
    List.sort
      (fun a b ->
        match compare (Mi.total_degree a) (Mi.total_degree b) with
        | 0 -> Mi.compare a b
        | c -> c)
      all
  in
  let indices = Array.of_list sorted in
  let lookup = Hashtbl.create (Array.length indices) in
  Array.iteri (fun i m -> Hashtbl.add lookup (Mi.to_array m) i) indices;
  { family; dim; poly_order; indices; lookup }

let num_basis t = Array.length t.indices
let dim t = t.dim
let poly_order t = t.poly_order
let family t = t.family
let index t k = t.indices.(k)

(* Position of a multi-index in the basis, if present. *)
let find t (m : int array) = Hashtbl.find_opt t.lookup m

(* Maximum 1D degree appearing anywhere (drives the size of Legendre tables). *)
let max_1d_degree t =
  Array.fold_left (fun acc m -> max acc (Mi.max_degree m)) 0 t.indices

(* Closed-form dimension counts, used to cross-check the enumeration. *)
let count_closed_form ~family ~dim:d ~poly_order:p =
  let open Dg_util.Combi in
  match family with
  | Tensor -> pow_int (p + 1) d
  | Maximal_order -> binomial (p + d) d
  | Serendipity when p = 0 -> 1
  | Serendipity ->
      (* sum_{i=0}^{min(d, p/2)} 2^(d-i) C(d,i) C(p-i, i), valid for p >= 1 *)
      let acc = ref 0 in
      for i = 0 to min d (p / 2) do
        acc := !acc + (pow_int 2 (d - i) * binomial d i * binomial (p - i) i)
      done;
      !acc

(* Evaluate basis function k at a reference-cell point. *)
let eval t k (xi : float array) =
  assert (Array.length xi = t.dim);
  let m = t.indices.(k) in
  let acc = ref 1.0 in
  for i = 0 to t.dim - 1 do
    acc := !acc *. Dg_cas.Legendre.eval_normalized (Mi.get m i) xi.(i)
  done;
  !acc

(* Evaluate all basis functions at a point into [out]. *)
let eval_all t (xi : float array) (out : float array) =
  assert (Array.length out = num_basis t);
  (* Share the per-dimension Legendre evaluations across basis functions. *)
  let nmax = max_1d_degree t in
  let vals =
    Array.init t.dim (fun i ->
        Array.init (nmax + 1) (fun n -> Dg_cas.Legendre.eval_normalized n xi.(i)))
  in
  Array.iteri
    (fun k m ->
      let acc = ref 1.0 in
      for i = 0 to t.dim - 1 do
        acc := !acc *. vals.(i).(Mi.get m i)
      done;
      out.(k) <- !acc)
    t.indices

(* Reconstruct f_h(xi) from modal coefficients. *)
let eval_expansion t (coeffs : float array) (xi : float array) =
  assert (Array.length coeffs = num_basis t);
  let w = Array.make (num_basis t) 0.0 in
  eval_all t xi w;
  let acc = ref 0.0 in
  Array.iteri (fun k v -> acc := !acc +. (coeffs.(k) *. v)) w;
  !acc

(* Basis function k as an explicit multivariate polynomial (tests, codegen). *)
let to_mpoly t k =
  let m = t.indices.(k) in
  let acc = ref (Dg_cas.Mpoly.const ~dim:t.dim 1.0) in
  for i = 0 to t.dim - 1 do
    let n = Mi.get m i in
    let u =
      Dg_cas.Mpoly.scale
        (Dg_cas.Legendre.norm_factor n)
        (Dg_cas.Mpoly.of_poly1 ~dim:t.dim ~i (Dg_cas.Legendre.legendre n))
    in
    acc := Dg_cas.Mpoly.mul !acc u
  done;
  !acc

(* The L2 projection of a pointwise function onto the basis, computed with
   [nquad]-point tensor Gauss quadrature per dimension (exact when f is a
   polynomial of degree <= 2*nquad-1).  The rule and every basis value at
   every point depend only on the basis, so they are tabulated once per
   projector and each projection is one pass over the table: the initial
   conditions, the Poisson_es field refresh and the BGK Maxwellian. *)
type projector = {
  np : int;
  points : float array array; (* shared by every call: callbacks only read *)
  wts : float array;
  phi : float array; (* phi.(q * np + k) = w_k(points.(q)) *)
}

let projector ?nquad t =
  let nquad = Option.value nquad ~default:(t.poly_order + 3) in
  let points, wts = Dg_cas.Quadrature.tensor ~dim:t.dim ~n:nquad in
  let np = num_basis t in
  let phi = Array.make (Array.length points * np) 0.0 in
  let w = Array.make np 0.0 in
  Array.iteri
    (fun q pt ->
      eval_all t pt w;
      Array.blit w 0 phi (q * np) np)
    points;
  { np; points; wts; phi }

(* Accumulates (w_q f(x_q)) w_k(x_q) over q in point order, so a
   coefficient's floats do not depend on whether the table is reused. *)
let project_with pr f =
  let np = pr.np and wts = pr.wts and phi = pr.phi in
  let coeffs = Array.make np 0.0 in
  Array.iteri
    (fun q pt ->
      let fv = f pt in
      let base = q * np in
      for k = 0 to np - 1 do
        coeffs.(k) <- coeffs.(k) +. (wts.(q) *. fv *. phi.(base + k))
      done)
    pr.points;
  coeffs

(* The vector form: [f] is called once per point and returns [ncomp]
   values; component c's coefficients land at [c * np + k].  Each
   component accumulates in the same point order and with the same
   products as [project_with] on that component alone, so the two agree
   bitwise. *)
let project_vec_with pr ~ncomp f =
  let np = pr.np and wts = pr.wts and phi = pr.phi in
  let coeffs = Array.make (ncomp * np) 0.0 in
  Array.iteri
    (fun q pt ->
      let fv = f pt in
      let base = q * np in
      for c = 0 to ncomp - 1 do
        let fc = fv.(c) and cb = c * np in
        for k = 0 to np - 1 do
          coeffs.(cb + k) <- coeffs.(cb + k) +. (wts.(q) *. fc *. phi.(base + k))
        done
      done)
    pr.points;
  coeffs

let project ?nquad t f = project_with (projector ?nquad t) f

(* Cell average of an expansion: the constant mode times the normalization
   P~_0 = 1/sqrt(2) per dimension, i.e. coeff_0 / sqrt(2)^dim. *)
let cell_average t (coeffs : float array) =
  coeffs.(0) /. (sqrt 2.0 ** float_of_int t.dim)

let pp ppf t =
  Fmt.pf ppf "%s basis, dim=%d, p=%d, Np=%d" (family_name t.family) t.dim
    t.poly_order (num_basis t)
