(* Per-cell phase-space flux expansions alpha_h (Eq. 4 of the paper).

   The flux along a configuration direction d is the velocity coordinate
   v_d = w + (dv/2) xi — two expansion coefficients.  The flux along a
   velocity direction j is the acceleration q/m (E_j + (v x B)_j), whose
   exact L2 projection onto the phase basis is a sparse linear map from the
   configuration-space coefficients of E and B; that map is precomputed here
   so that building alpha per cell costs a handful of multiply-adds. *)

module Modal = Dg_basis.Modal
module Mi = Dg_util.Multi_index
module Leg = Dg_cas.Legendre

(* Expansion constants: the function 1 on the reference cell has coefficient
   sqrt(2)^dim on the constant mode; xi_i has coefficient sqrt(2/3) on the
   linear mode times sqrt(2)^(dim-1) from the remaining constant factors. *)
let const_coeff ~dim = sqrt 2.0 ** float_of_int dim
let linear_coeff ~dim = sqrt (2.0 /. 3.0) *. (sqrt 2.0 ** float_of_int (dim - 1))

(* --- streaming ---------------------------------------------------------- *)

(* The constants of the expansion of v_d along configuration direction
   [dir], in cells of paired-velocity width [dv]: everything but the cell
   center, fixed once per direction. *)
type stream_ctx = {
  vd : int; (* paired velocity dimension, 0-based within velocity space *)
  const_idx : int; (* phase index of the constant mode *)
  lin_idx : int; (* phase index of the mode linear in v_vd *)
  const : float; (* sqrt(2)^pdim *)
  lin : float; (* the linear coefficient, (dv/2) linear_coeff *)
  half_dv : float;
}

let make_stream_ctx (lay : Layout.t) ~dir ~dv =
  let pdim = lay.Layout.pdim in
  let support = Tensors.streaming_support lay ~dir in
  {
    vd = Layout.paired_velocity_dim lay dir - lay.Layout.cdim;
    const_idx = support.(0);
    lin_idx = support.(1);
    const = const_coeff ~dim:pdim;
    lin = 0.5 *. dv *. linear_coeff ~dim:pdim;
    half_dv = 0.5 *. dv;
  }

(* Fill [alpha] (support entries only) with the expansion of v_d in the
   phase cell whose velocity-cell centers are [vcenter]. *)
let streaming_alpha s ~(vcenter : float array) (alpha : float array) =
  alpha.(s.const_idx) <- vcenter.(s.vd) *. s.const;
  alpha.(s.lin_idx) <- s.lin

(* Max |v_d| over a cell: penalty speed for streaming surfaces. *)
let streaming_max_speed s ~(vcenter : float array) =
  Float.abs vcenter.(s.vd) +. s.half_dv

(* --- acceleration ------------------------------------------------------- *)

(* EM-field component indices in the coefficient blocks of the field solver. *)
let ex = 0
and ey = 1
and ez = 2
and bx = 3
and by = 4
and bz = 5

(* Levi-Civita symbol. *)
let eps i j k =
  match (i, j, k) with
  | 0, 1, 2 | 1, 2, 0 | 2, 0, 1 -> 1.0
  | 0, 2, 1 | 2, 1, 0 | 1, 0, 2 -> -1.0
  | _ -> 0.0

(* One precomputed projection term:
   alpha.(dst) += coef * [vcenter.(center_dim) if center_dim >= 0]
                       * em.(em_off + comp * ncbasis + src) *)
type term = { dst : int; comp : int; src : int; center_dim : int; coef : float }

type accel_ctx = {
  vdir : int; (* velocity direction j, 0-based within velocity space *)
  terms : term array;
  support : int array;
  maxval : float array; (* prod_i max|P~_{m_i}|, for the penalty bound *)
}

(* Build the projection map for velocity direction [vdir] (0-based).  [qm] is
   the charge-to-mass ratio of the species. *)
let make_accel_ctx (lay : Layout.t) ~vdir ~qm =
  let open Layout in
  let nc = Modal.num_basis lay.cbasis in
  let s0 = const_coeff ~dim:lay.vdim in
  let s1 = linear_coeff ~dim:lay.vdim in
  (* phase index of config multi-index a with a single extra velocity degree
     in velocity dim k, if representable *)
  let lin_idx k a =
    let mi = Mi.to_array (Modal.index lay.cbasis a) in
    let padded = Array.append mi (Array.make lay.vdim 0) in
    padded.(lay.cdim + k) <- 1;
    Modal.find lay.basis padded
  in
  let dv = Dg_grid.Grid.dx lay.vgrid in
  let terms = ref [] in
  for a = 0 to nc - 1 do
    let dst0 = lay.cfg_to_phase.(a) in
    (* electric field term *)
    terms :=
      { dst = dst0; comp = ex + vdir; src = a; center_dim = -1; coef = qm *. s0 }
      :: !terms;
    (* v x B terms: sum_k,l eps_{j k l} v_k B_l with k a *present* velocity
       dimension *)
    for k = 0 to lay.vdim - 1 do
      for l = 0 to 2 do
        let e = eps vdir k l in
        if e <> 0.0 then begin
          (* center part: w_k B_l *)
          terms :=
            {
              dst = dst0;
              comp = bx + l;
              src = a;
              center_dim = k;
              coef = qm *. e *. s0;
            }
            :: !terms;
          (* linear part: (dv_k/2) xi_k B_l *)
          match lin_idx k a with
          | Some dst ->
              terms :=
                {
                  dst;
                  comp = bx + l;
                  src = a;
                  center_dim = -1;
                  coef = qm *. e *. 0.5 *. dv.(k) *. s1;
                }
                :: !terms
          | None -> () (* projected away (maximal-order at top degree) *)
        end
      done
    done
  done;
  let support = Tensors.acceleration_support lay ~vdir:(lay.cdim + vdir) in
  let tb = Leg.tables (max 1 (Modal.max_1d_degree lay.basis)) in
  let maxval =
    Array.init (Modal.num_basis lay.basis) (fun k ->
        let m = Mi.to_array (Modal.index lay.basis k) in
        Array.fold_left (fun acc n -> acc *. tb.Leg.maxv.(n)) 1.0 m)
  in
  { vdir; terms = Array.of_list (List.rev !terms); support; maxval }

(* Fill [alpha] from the EM coefficient block at [em.(em_off ..)], laid out
   as [ncbasis] coefficients per component.  [vcenter] are the velocity-cell
   centers. *)
let accel_alpha ctx ~(em : float array) ~em_off ~ncbasis
    ~(vcenter : float array) (alpha : float array) =
  let support = ctx.support and terms = ctx.terms in
  for i = 0 to Array.length support - 1 do
    alpha.(support.(i)) <- 0.0
  done;
  for i = 0 to Array.length terms - 1 do
    let t = terms.(i) in
    let v = em.(em_off + (t.comp * ncbasis) + t.src) in
    let c = if t.center_dim >= 0 then vcenter.(t.center_dim) else 1.0 in
    alpha.(t.dst) <- alpha.(t.dst) +. (t.coef *. c *. v)
  done

(* Upper bound on |a_j| over the cell, for the Lax-Friedrichs penalty. *)
let accel_max_speed ctx (alpha : float array) =
  let support = ctx.support and acc = ref 0.0 in
  for i = 0 to Array.length support - 1 do
    let m = support.(i) in
    acc := !acc +. (Float.abs alpha.(m) *. ctx.maxval.(m))
  done;
  !acc
