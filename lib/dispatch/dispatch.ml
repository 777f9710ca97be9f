(* Kernel dispatch: route each per-direction tensor application through a
   generated unrolled kernel (lib/genkernels, the paper's Fig.-1 kernels)
   when one exists for the layout's basis, falling back to the interpreted
   sparse application otherwise.  Selection happens once at solver creation;
   the hot path pays a single constructor match per tensor application.  A
   generated kernel is a kernel id: the call goes straight to the external
   of its kind, which indexes a C table of function pointers, with no
   closure in between.

   The registry is keyed by (family, poly_order, cdim, vdim, dir) and
   holds every direction of every standard configuration
   (Codegen.standard_configs): with the surface term in face form each
   direction is a few thousand multiplications, so nothing is left out.
   Every other configuration (maximal-order bases, higher orders or
   dimensions) runs the interpreted sparse loops over the same tables. *)

module K = Dg_genkernels.Kernels
module Modal = Dg_basis.Modal
module Layout = Dg_kernels.Layout
module Sparse = Dg_kernels.Sparse
module Tensors = Dg_kernels.Tensors

type t3_op = Gen3 of int | Interp3 of Sparse.t3
type t2_op = Gen2 of int | Interp2 of Sparse.t2

(* The tensor applications of [face_flux]; Sweep, which cannot inline
   them from here, has its own pair. *)
let[@inline] apply_t3 op ~scale (alpha : float array) (f : float array) ~foff
    (out : float array) ~ooff =
  match op with
  | Gen3 id -> K.t3 id ~scale alpha f ~foff out ~ooff
  | Interp3 t -> Sparse.apply_t3_off t ~scale alpha f ~foff out ~ooff

let[@inline] apply_t2 op ~scale (f : float array) ~foff (out : float array)
    ~ooff =
  match op with
  | Gen2 id -> K.t2 id ~scale f ~foff out ~ooff
  | Interp2 t -> Sparse.apply_t2_off t ~scale f ~foff out ~ooff

(* All tensor applications of one phase-space direction, pre-dispatched.
   [vol_stream] is the specialized streaming volume kernel (configuration
   directions of specialized bundles only): it folds the two-coefficient
   flux expansion into the literals, so the caller passes cell geometry
   instead of a flux expansion.  The surface term runs in face form
   (Tensors.face): two restrictions to the face basis, the face triple,
   two lifts. *)
type dir_ops = {
  specialized : bool;
  vol : t3_op;
  vol_stream : int option; (* a kernel id of K.stream *)
  nface : int; (* face-basis size *)
  restrict_lo : t2_op;
  restrict_hi : t2_op;
  face : t3_op;
  lift_lo : t2_op;
  lift_hi : t2_op;
  mults : int; (* multiplications per cell-direction update (generated) *)
}

let find_bundle (lay : Layout.t) ~dir =
  let basis = lay.Layout.basis in
  K.find
    ~family:(Modal.family_name (Modal.family basis))
    ~poly_order:(Modal.poly_order basis) ~cdim:lay.Layout.cdim
    ~vdim:lay.Layout.vdim ~dir

let interpreted (dk : Tensors.dir_kernels) =
  let fc = dk.Tensors.face in
  {
    specialized = false;
    vol = Interp3 dk.Tensors.vol;
    vol_stream = None;
    nface = fc.Tensors.nface;
    restrict_lo = Interp2 fc.Tensors.restrict_lo;
    restrict_hi = Interp2 fc.Tensors.restrict_hi;
    face = Interp3 fc.Tensors.triple;
    lift_lo = Interp2 fc.Tensors.lift_lo;
    lift_hi = Interp2 fc.Tensors.lift_hi;
    mults = 0;
  }

let make ~use_generated (lay : Layout.t) ~dir (dk : Tensors.dir_kernels) =
  let bundle = if use_generated then find_bundle lay ~dir else None in
  match bundle with
  | Some b ->
      Dg_obs.Obs.count "dispatch.specialized_dirs" 1;
      (* codegen-pipeline accounting: multiplications the CSE pass removed
         and parts (CSE scopes) the chunker produced for this direction *)
      Dg_obs.Obs.count "kernels.cse_saved_mults" (b.K.mults_raw - b.K.mults);
      Dg_obs.Obs.count "kernels.chunks" b.K.chunks;
      {
        specialized = true;
        vol = Gen3 b.K.vol;
        vol_stream = b.K.vol_stream;
        nface = dk.Tensors.face.Tensors.nface;
        restrict_lo = Gen2 b.K.restrict_lo;
        restrict_hi = Gen2 b.K.restrict_hi;
        face = Gen3 b.K.face;
        lift_lo = Gen2 b.K.lift_lo;
        lift_hi = Gen2 b.K.lift_hi;
        mults = b.K.mults;
      }
  | None ->
      Dg_obs.Obs.count "dispatch.interpreted_dirs" 1;
      interpreted dk

(* The flux of one face in face form (Tensors.face), written to
   [face.(2 nf ..)]: with a = R_hi f_L and b = R_lo f_R the face traces,
     S = a + b,   J = b - a,   G = rdx (F alpha S) - lam rdx J.
   [face] is the sweep's face scratch: traces, then S and J in place,
   then G.  Allocates nothing. *)
let face_flux (ops : dir_ops) ~rdx ~lam (alpha : float array)
    (fd : float array) ~foff_l ~foff_r (face : float array) =
  let nf = ops.nface in
  Array.fill face 0 (3 * nf) 0.0;
  apply_t2 ops.restrict_hi ~scale:1.0 fd ~foff:foff_l face ~ooff:0;
  apply_t2 ops.restrict_lo ~scale:1.0 fd ~foff:foff_r face ~ooff:nf;
  for k = 0 to nf - 1 do
    let a = Array.unsafe_get face k and b = Array.unsafe_get face (nf + k) in
    Array.unsafe_set face k (a +. b);
    Array.unsafe_set face (nf + k) (b -. a)
  done;
  apply_t3 ops.face ~scale:rdx alpha face ~foff:0 face ~ooff:(2 * nf);
  if lam <> 0.0 then begin
    let s = lam *. rdx and g = 2 * nf in
    for k = 0 to nf - 1 do
      Array.unsafe_set face (g + k)
        (Array.unsafe_get face (g + k) -. (s *. Array.unsafe_get face (nf + k)))
    done
  end
