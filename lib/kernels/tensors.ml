(* Construction of the coupling tensors of the modal DG scheme.

   For phase-space direction [dir], the volume term of the discrete weak
   form is
       out_l += (2/dz_dir) sum_{m,n} A^dir_{lmn} alpha_m f_n,
       A^dir_{lmn} = int_ref w_m w_n  d(w_l)/d(xi_dir)  dxi,
   and the surface terms at a face between a left cell L and right cell R are
   built from
       T^{dir,(s_l, s_n)}_{lmn}
         = edge(l_dir, s_l) * edge(m_dir, +1) * edge(n_dir, s_n)
           * prod_{i<>dir} int P~_{m_i} P~_{n_i} P~_{l_i},
   where s_l is the face side seen from the cell being updated and s_n the
   side from which the distribution-function trace is taken; the phase-space
   flux alpha is single-valued on every face (streaming: v is globally
   linear; acceleration: independent of the normal velocity coordinate), so
   its trace is always taken from the left cell at its upper face.

   Because every basis function is a product of 1D normalized Legendre
   polynomials, each entry is an exact product of 1D table values and the
   tensors are extremely sparse; zero entries are skipped at build time.
   This is precisely the sparsification-by-orthonormality argument of the
   paper (Section II). *)

module Modal = Dg_basis.Modal
module Mi = Dg_util.Multi_index
module Leg = Dg_cas.Legendre

let tables_for basis = Leg.tables (max 1 (Modal.max_1d_degree basis))

(* --- flux support sets -------------------------------------------------- *)

(* Indices of phase-basis functions that can carry a streaming flux
   v_d = w + (dv/2) xi: the constant mode and the mode linear in the paired
   velocity coordinate. *)
let streaming_support (lay : Layout.t) ~dir =
  assert (Layout.is_config_dir lay dir);
  let pdim = lay.Layout.pdim in
  let vd = Layout.paired_velocity_dim lay dir in
  let const_idx =
    Option.get (Modal.find lay.Layout.basis (Array.make pdim 0))
  in
  let e = Array.make pdim 0 in
  e.(vd) <- 1;
  let lin_idx = Option.get (Modal.find lay.Layout.basis e) in
  [| const_idx; lin_idx |]

(* Indices that can carry an acceleration flux q/m (E_j + (v x B)_j): any
   configuration multi-index combined with velocity degrees that are all zero
   or a single 1 in a velocity dimension other than j.  (Maximal-order bases
   may not contain some of these; they are then simply not in the support,
   i.e. the flux is L2-projected.) *)
let acceleration_support (lay : Layout.t) ~vdir =
  let open Layout in
  assert (not (is_config_dir lay vdir));
  let acc = ref [] in
  for k = 0 to Modal.num_basis lay.basis - 1 do
    let m = Mi.to_array (Modal.index lay.basis k) in
    let vel_part = Array.sub m lay.cdim lay.vdim in
    let deg = Array.fold_left ( + ) 0 vel_part in
    let ok =
      deg = 0
      || deg = 1
         && Mi.max_degree vel_part = 1
         && vel_part.(vdir - lay.cdim) = 0
    in
    if ok then acc := k :: !acc
  done;
  Array.of_list (List.rev !acc)

(* Indices that carry the drift nu (u_j(x) - v_j) of the Dougherty
   collision operator along velocity dimension [vdir] (0-based): every
   configuration mode plus the mode linear in v_j.  Unlike the Vlasov
   supports it holds a mode of nonzero degree along its own direction: the
   two cells of a face in that direction expand the same continuous flux
   with different constant coefficients. *)
let drift_support (lay : Layout.t) ~vdir =
  let e = Array.make lay.Layout.pdim 0 in
  e.(lay.Layout.cdim + vdir) <- 1;
  let lin = Option.get (Modal.find lay.Layout.basis e) in
  Array.append lay.Layout.cfg_to_phase [| lin |]

(* --- generic builders --------------------------------------------------- *)

(* Build a 3-tensor with entries
     c(l, m, n) = factor_dir(m_dir, n_dir, l_dir)
                  * prod_{i<>dir} trip(m_i, n_i, l_i)
   for m restricted to [support]; skipped if |c| = 0. *)
let build_t3 basis ~support ~dir ~factor_dir =
  let tb = tables_for basis in
  let np = Modal.num_basis basis in
  let dim = Modal.dim basis in
  let idx k = Mi.to_array (Modal.index basis k) in
  let mis = Array.init np idx in
  let entries = ref [] in
  for l = 0 to np - 1 do
    let ml = mis.(l) in
    Array.iter
      (fun m ->
        let mm = mis.(m) in
        for n = 0 to np - 1 do
          let mn = mis.(n) in
          let c = ref (factor_dir mm.(dir) mn.(dir) ml.(dir)) in
          (try
             for i = 0 to dim - 1 do
               if i <> dir then begin
                 c := !c *. tb.Leg.trip.(mm.(i)).(mn.(i)).(ml.(i));
                 if !c = 0.0 then raise Exit
               end
             done
           with Exit -> ());
          if !c <> 0.0 then entries := (l, m, n, !c) :: !entries
        done)
      support
  done;
  Sparse.t3_of_list (List.rev !entries)

(* --- volume tensors ----------------------------------------------------- *)

(* A^dir_{lmn} = dtriple(m_dir, n_dir, l_dir) * prod trip. *)
let volume basis ~support ~dir =
  let tb = tables_for basis in
  build_t3 basis ~support ~dir ~factor_dir:(fun md nd ld ->
      tb.Leg.dtrip.(md).(nd).(ld))

(* Volume 2-tensor for *linear* constant-coefficient fluxes (Maxwell and
   other linear hyperbolic systems): D_{ln} = int w_n d(w_l)/d(xi_dir). *)
let volume_linear basis ~dir =
  let tb = tables_for basis in
  let np = Modal.num_basis basis in
  let dim = Modal.dim basis in
  let entries = ref [] in
  for l = 0 to np - 1 do
    let ml = Mi.to_array (Modal.index basis l) in
    for n = 0 to np - 1 do
      let mn = Mi.to_array (Modal.index basis n) in
      let c = ref tb.Leg.dpair.(mn.(dir)).(ml.(dir)) in
      (try
         for i = 0 to dim - 1 do
           if i <> dir then
             if mn.(i) <> ml.(i) then begin
               c := 0.0;
               raise Exit
             end
         done
       with Exit -> ());
      if !c <> 0.0 then entries := (l, n, !c) :: !entries
    done
  done;
  Sparse.t2_of_list (List.rev !entries)

(* --- surface tensors ---------------------------------------------------- *)

type side = Lo | Hi

let edge tb n = function
  | Lo -> tb.Leg.edge_lo.(n)
  | Hi -> tb.Leg.edge_hi.(n)

(* T^{dir,(s_l, s_n)} with the flux trace fixed at the left cell's upper
   face (s_m = Hi). *)
let surface basis ~support ~dir ~s_l ~s_n =
  let tb = tables_for basis in
  build_t3 basis ~support ~dir ~factor_dir:(fun md nd ld ->
      edge tb md Hi *. edge tb nd s_n *. edge tb ld s_l)

(* Recovery-stencil surface tensor: the trace of the distribution function
   in the face-normal direction is replaced by an arbitrary 1D stencil
   (e.g. the recovery value/slope stencils of Recovery.t):
     factor = lfactor(l_dir) * edge(m_dir,+1) * nstencil.(n_dir),
   with the test-function factor either the edge value or the edge
   *derivative* (for the symmetrizing correction term). *)
type lfactor = Val of side | Der of side

let surface_stencil basis ~support ~dir ~lfactor ~(nstencil : float array) =
  let tb = tables_for basis in
  let lf ld =
    match lfactor with
    | Val s -> edge tb ld s
    | Der Lo -> tb.Leg.dedge_lo.(ld)
    | Der Hi -> tb.Leg.dedge_hi.(ld)
  in
  build_t3 basis ~support ~dir ~factor_dir:(fun md nd ld ->
      lf ld *. edge tb md Hi *. nstencil.(nd))

(* Penalty 2-tensor: P^{(s_l, s_n)}_{ln} = edge(l_dir,s_l) edge(n_dir,s_n)
   prod_{i<>dir} delta_{l_i n_i}. *)
let penalty basis ~dir ~s_l ~s_n =
  let tb = tables_for basis in
  let np = Modal.num_basis basis in
  let dim = Modal.dim basis in
  let entries = ref [] in
  for l = 0 to np - 1 do
    let ml = Mi.to_array (Modal.index basis l) in
    for n = 0 to np - 1 do
      let mn = Mi.to_array (Modal.index basis n) in
      let same = ref true in
      for i = 0 to dim - 1 do
        if i <> dir && ml.(i) <> mn.(i) then same := false
      done;
      if !same then begin
        let c = edge tb ml.(dir) s_l *. edge tb mn.(dir) s_n in
        if c <> 0.0 then entries := (l, n, c) :: !entries
      end
    done
  done;
  Sparse.t2_of_list (List.rev !entries)

(* Weak-product tensor over a basis: T_{lmn} = int w_l w_m w_n (all dims
   trip-factorized).  Drives weak multiplication/division of configuration
   fields (primitive moments for collision operators). *)
let mass_triple basis =
  let tb = tables_for basis in
  let np = Modal.num_basis basis in
  let dim = Modal.dim basis in
  let mis = Array.init np (fun k -> Mi.to_array (Modal.index basis k)) in
  let entries = ref [] in
  for l = 0 to np - 1 do
    for m = 0 to np - 1 do
      for n = 0 to np - 1 do
        let c = ref 1.0 in
        (try
           for i = 0 to dim - 1 do
             c := !c *. tb.Leg.trip.(mis.(m).(i)).(mis.(n).(i)).(mis.(l).(i));
             if !c = 0.0 then raise Exit
           done
         with Exit -> ());
        if !c <> 0.0 then entries := (l, m, n, !c) :: !entries
      done
    done
  done;
  Sparse.t3_of_list (List.rev !entries)

(* Twice-integrated diffusion volume tensor: int w_m w_n d^2 w_l/dxi_dir^2,
   the cell term of the recovery scheme (valid when the diffusion
   coefficient does not vary along [dir], true for vth^2(x) in velocity). *)
let volume_diffusion2 basis ~support ~dir =
  let tb = tables_for basis in
  build_t3 basis ~support ~dir ~factor_dir:(fun md nd ld ->
      tb.Leg.d2trip.(md).(nd).(ld))

(* --- the face form of the surface term -------------------------------- *)

(* The flux expansion alpha never depends on the face-normal coordinate
   xi_dir on the face it is traced to, and every basis function is a
   product over dimensions, so the surface integral of
   T^{dir,(s_l, s_n)} factors exactly through the (pdim-1)-dimensional
   face basis (the distinct face-tangential parts of the basis
   multi-indices):
     restrict  (R_s f)_j      = sum_{n : n_perp = j} edge(n_dir, s) f_n,
     flux      G_k            = sum_{m, j} F_{kmj} alpha_m S_j,   S = R_hi f_L + R_lo f_R,
                F_{kmj}       = edge(m_dir, +1) prod_{i<>dir} int P~_{m_i} P~_{j_i} P~_{k_i},
     lift      (L_s G)_l      = edge(l_dir, s) G_{l_perp},
   so that T^{(s_l, s_n)} = L_{s_l} F R_{s_n} and the penalty tensor
   P^{(s_l, s_n)} = L_{s_l} R_{s_n}: entry for entry, with the same 1D
   factors.  A face applies N_p entries per restriction and lift plus the
   face triple: 1,984 nonzeros per 2X3V p=2 acceleration face, where the
   four volume-lifted surface tensors and four penalty tensors applied
   36,416.

   [face_entries] is generic over the scalar type so the exact rational form
   (unnormalized Legendre tables) comes from the same code as the float
   kernels. *)

(* The 1D ingredients of a face form: the basis polynomial of degree n at
   the reference-cell edge, and int P_a P_b P_c over [-1, 1]. *)
type 'a face_scalars = {
  mul : 'a -> 'a -> 'a;
  is_zero : 'a -> bool;
  edge_at : int -> side -> 'a;
  trip_at : int -> int -> int -> 'a;
}

type 'a face_entries = {
  face_of : int array; (* face index of each volume basis function *)
  n_face : int;
  r_lo : (int * int * 'a) list; (* restriction: (face row j, volume col n, c) *)
  r_hi : (int * int * 'a) list;
  tri : (int * int * int * 'a) list; (* (face row k, alpha m, face col j, c) *)
  l_lo : (int * int * 'a) list; (* lift: (volume row l, face col k, c) *)
  l_hi : (int * int * 'a) list;
}

(* Face indices number the distinct face-tangential multi-indices in
   order of first appearance in the basis. *)
let face_entries (sc : 'a face_scalars) basis ~support ~dir =
  let np = Modal.num_basis basis in
  let dim = Modal.dim basis in
  let mis = Array.init np (fun k -> Mi.to_array (Modal.index basis k)) in
  let tangential k =
    let a = Array.copy mis.(k) in
    a.(dir) <- 0;
    a
  in
  let seen = Hashtbl.create 64 in
  let faces = ref [] in
  let face_of =
    Array.init np (fun k ->
        let key = tangential k in
        match Hashtbl.find_opt seen key with
        | Some j -> j
        | None ->
            let j = Hashtbl.length seen in
            Hashtbl.add seen key j;
            faces := key :: !faces;
            j)
  in
  let fmis = Array.of_list (List.rev !faces) in
  let nface = Array.length fmis in
  let restrict s =
    List.init np (fun n -> (face_of.(n), n, sc.edge_at mis.(n).(dir) s))
  in
  let lift s =
    List.init np (fun l -> (l, face_of.(l), sc.edge_at mis.(l).(dir) s))
  in
  let triple = ref [] in
  for k = 0 to nface - 1 do
    Array.iter
      (fun m ->
        for j = 0 to nface - 1 do
          let c = ref (sc.edge_at mis.(m).(dir) Hi) in
          (try
             for i = 0 to dim - 1 do
               if i <> dir then begin
                 c := sc.mul !c (sc.trip_at mis.(m).(i) fmis.(j).(i) fmis.(k).(i));
                 if sc.is_zero !c then raise Exit
               end
             done
           with Exit -> ());
          if not (sc.is_zero !c) then triple := (k, m, j, !c) :: !triple
        done)
      support
  done;
  {
    face_of;
    n_face = nface;
    r_lo = restrict Lo;
    r_hi = restrict Hi;
    tri = List.rev !triple;
    l_lo = lift Lo;
    l_hi = lift Hi;
  }

(* One direction's face form over the normalized basis. *)
type face = {
  nface : int; (* face-basis size *)
  restrict_lo : Sparse.t2; (* face <- volume: trace at xi_dir = -1 *)
  restrict_hi : Sparse.t2; (* face <- volume: trace at xi_dir = +1 *)
  triple : Sparse.t3; (* (face row, volume alpha index, face column) *)
  lift_lo : Sparse.t2; (* volume <- face, weighted by P~_{l_dir}(-1) *)
  lift_hi : Sparse.t2; (* volume <- face, weighted by P~_{l_dir}(+1) *)
}

let face basis ~support ~dir =
  let tb = tables_for basis in
  let e =
    face_entries
      {
        mul = ( *. );
        is_zero = (fun c -> c = 0.0);
        edge_at = edge tb;
        trip_at = (fun a b c -> tb.Leg.trip.(a).(b).(c));
      }
      basis ~support ~dir
  in
  {
    nface = e.n_face;
    restrict_lo = Sparse.t2_of_list e.r_lo;
    restrict_hi = Sparse.t2_of_list e.r_hi;
    triple = Sparse.t3_of_list e.tri;
    lift_lo = Sparse.t2_of_list e.l_lo;
    lift_hi = Sparse.t2_of_list e.l_hi;
  }

let face_nnz fc =
  Sparse.t2_nnz fc.restrict_lo + Sparse.t2_nnz fc.restrict_hi
  + Sparse.t3_nnz fc.triple + Sparse.t2_nnz fc.lift_lo
  + Sparse.t2_nnz fc.lift_hi

(* All tensors needed for one phase-space direction, bundled: the volume
   tensor and the face form of the surface and penalty terms. *)
type dir_kernels = {
  dir : int;
  support : int array;
  vol : Sparse.t3;
  face : face;
}

let make_dir (lay : Layout.t) ~dir =
  let basis = lay.Layout.basis in
  let support =
    if Layout.is_config_dir lay dir then streaming_support lay ~dir
    else acceleration_support lay ~vdir:dir
  in
  { dir; support; vol = volume basis ~support ~dir; face = face basis ~support ~dir }

(* Total non-zero count across a direction's tensors (sparsity metric for
   the N_p scaling study, Fig. 2). *)
let dir_nnz k = Sparse.t3_nnz k.vol + face_nnz k.face

(* --- velocity-space integral tables ------------------------------------ *)

(* int_{-1}^{1} xi^r P~_n(xi) dxi for r = 0, 1, 2, used by the moment
   operators (density, momentum, energy) — exact, from the CAS layer. *)
type vtables = { i0 : float array; i1 : float array; i2 : float array }

let vspace_tables nmax =
  let integral r n =
    let p =
      Dg_cas.Poly1.mul
        (Array.fold_left
           (fun acc _ -> Dg_cas.Poly1.mul acc Dg_cas.Poly1.x)
           Dg_cas.Poly1.one
           (Array.make r ()))
        (Leg.legendre n)
    in
    Dg_cas.Rat.to_float (Dg_cas.Poly1.integrate_ref p) *. Leg.norm_factor n
  in
  {
    i0 = Array.init (nmax + 1) (integral 0);
    i1 = Array.init (nmax + 1) (integral 1);
    i2 = Array.init (nmax + 1) (integral 2);
  }
