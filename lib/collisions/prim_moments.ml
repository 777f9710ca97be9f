(* Primitive moments (flow velocity u, squared thermal speed vth^2) computed
   from the raw velocity moments M0, M1, M2 by *weak* operations on the
   configuration-space expansions: weak multiplication is the exact L2
   projection of a product, and weak division inverts it by solving the
   small per-cell linear system sum_b A_ab u_b = r_a with
   A_ab = sum_c T_abc g_c — the approach used by Gkeyll's collision
   infrastructure (Hakim et al. 2020, [22] of the paper). *)

module Layout = Dg_kernels.Layout
module Tensors = Dg_kernels.Tensors
module Sparse = Dg_kernels.Sparse
module Modal = Dg_basis.Modal
module Grid = Dg_grid.Grid
module Field = Dg_grid.Field
module Mat = Dg_linalg.Mat
module Lu = Dg_linalg.Lu
module Moments = Dg_moments.Moments

type t = {
  lay : Layout.t;
  nc : int;
  triple : Sparse.t3; (* T_abc over the config basis *)
}

let make (lay : Layout.t) =
  {
    lay;
    nc = Layout.num_cbasis lay;
    triple = Tensors.mass_triple lay.Layout.cbasis;
  }

(* out_a = sum_{b,c} T_abc f_b g_c : the exact projection of f*g. *)
let weak_mul t (f : float array) (g : float array) (out : float array) =
  Array.fill out 0 t.nc 0.0;
  Sparse.apply_t3 t.triple ~scale:1.0 f g out

(* Solve (g *weak* out) = r for out: out = r / g in the weak sense. *)
let weak_div t (g : float array) (r : float array) : float array =
  let a = Mat.create t.nc t.nc in
  let tt = t.triple in
  for e = 0 to Array.length tt.Sparse.cv - 1 do
    let l = tt.Sparse.li.(e) and m = tt.Sparse.mi.(e) and n = tt.Sparse.ni.(e) in
    (* row l, unknown coefficient index m, known g at n *)
    Mat.set a l m (Mat.get a l m +. (tt.Sparse.cv.(e) *. g.(n)))
  done;
  Lu.solve a r

type prim = {
  u : Field.t; (* flow velocity, vdim blocks of nc coefficients *)
  vth2 : Field.t; (* squared thermal speed, nc coefficients *)
  m0 : Field.t;
  m1 : Field.t; (* momentum scratch, 3 blocks of nc coefficients *)
  m2 : Field.t; (* energy scratch *)
  flags : Bytes.t; (* per config cell: '\001' when non-realizable *)
  mutable nonrealizable : int;
}

let alloc_prim t =
  {
    u = Field.create t.lay.Layout.cgrid ~ncomp:(t.lay.Layout.vdim * t.nc);
    vth2 = Field.create t.lay.Layout.cgrid ~ncomp:t.nc;
    m0 = Field.create t.lay.Layout.cgrid ~ncomp:t.nc;
    m1 = Field.create t.lay.Layout.cgrid ~ncomp:(3 * t.nc);
    m2 = Field.create t.lay.Layout.cgrid ~ncomp:t.nc;
    flags = Bytes.make (Grid.num_cells t.lay.Layout.cgrid) '\000';
    nonrealizable = 0;
  }

let flagged prim i = Bytes.get prim.flags i <> '\000'

(* Compute u = M1/M0 and vth^2 = (M2 - u.M1) / (vdim M0) cellwise.

   Realizability guard: a cell whose density average is not strictly
   positive has no meaningful primitives — the weak division is singular
   or produces garbage (and Bgk.maxwellian used to return a silent zero
   Maxwellian from it).  Such cells are FLAGGED in [prim.flags] and their
   u/vth^2 blocks zeroed instead of solved; the same flag is raised when
   the computed vth^2 average comes out non-positive (or NaN).  Consumers
   (LBO/BGK) floor-clamp flagged cells via {!floor_clamp}. *)
let compute t ~(moments : Moments.t) ~(f : Field.t) ~(prim : prim) =
  let lay = t.lay in
  let nc = t.nc in
  let vdim = lay.Layout.vdim in
  let cb = lay.Layout.cbasis in
  let m1 = prim.m1 and m2 = prim.m2 in
  Field.fill prim.m0 0.0;
  Field.fill m1 0.0;
  Field.fill m2 0.0;
  Moments.raw_moments moments ~f ~m0:prim.m0 ~m1 ~m2;
  Bytes.fill prim.flags 0 (Bytes.length prim.flags) '\000';
  prim.nonrealizable <- 0;
  let m0b = Array.make nc 0.0 in
  let m1b = Array.make (3 * nc) 0.0 in
  let m2b = Array.make nc 0.0 in
  let ub = Array.make nc 0.0 in
  let tmp = Array.make nc 0.0 in
  let flag i =
    if not (flagged prim i) then begin
      Bytes.set prim.flags i '\001';
      prim.nonrealizable <- prim.nonrealizable + 1
    end
  in
  Grid.iter_cells lay.Layout.cgrid (fun i c ->
      Field.read_block prim.m0 c m0b;
      Field.read_block m1 c m1b;
      Field.read_block m2 c m2b;
      (* [not (x > 0)] instead of [x <= 0]: a NaN average must flag too *)
      if not (Modal.cell_average cb m0b > 0.0) then begin
        flag i;
        let ud = Field.data prim.u in
        Array.fill ud (Field.offset prim.u c) (vdim * nc) 0.0;
        let vd = Field.data prim.vth2 in
        Array.fill vd (Field.offset prim.vth2 c) nc 0.0
      end
      else begin
        (* u_k = M1_k / M0, and accumulate u . M1 into m2b (negated) *)
        (try
           for k = 0 to vdim - 1 do
             let m1k = Array.sub m1b (k * nc) nc in
             let uk = weak_div t m0b m1k in
             Array.blit uk 0 ub 0 nc;
             Field.data prim.u
             |> fun d -> Array.blit ub 0 d (Field.offset prim.u c + (k * nc)) nc;
             weak_mul t ub m1k tmp;
             for a = 0 to nc - 1 do
               m2b.(a) <- m2b.(a) -. tmp.(a)
             done
           done;
           (* vth^2 = (M2 - u.M1) / (vdim M0) *)
           let denom = Array.map (fun v -> float_of_int vdim *. v) m0b in
           let vt2 = weak_div t denom m2b in
           Array.blit vt2 0 (Field.data prim.vth2) (Field.offset prim.vth2 c) nc
         with Lu.Singular ->
           flag i;
           let ud = Field.data prim.u in
           Array.fill ud (Field.offset prim.u c) (vdim * nc) 0.0;
           let vd = Field.data prim.vth2 in
           Array.fill vd (Field.offset prim.vth2 c) nc 0.0);
        if not (flagged prim i) then begin
          Field.read_block prim.vth2 c tmp;
          if not (Modal.cell_average cb tmp > 0.0) then flag i
        end
      end)

(* Replace the primitives of every flagged cell with a flat floored
   profile (constant-in-cell n_floor / vth2_floor, zero flow): the
   realizability-safe fallback the collision operators relax toward in a
   lost cell.  Also raises sub-floor averages in flagged cells up to the
   floor.  Returns how many cells were clamped. *)
let floor_clamp t ~(prim : prim) ~n_floor ~vth2_floor =
  if prim.nonrealizable = 0 then 0
  else begin
    let lay = t.lay in
    let nc = t.nc in
    let cb = lay.Layout.cbasis in
    (* constant-mode value: a flat profile with average a has c0 = a/psi0 *)
    let psi0 = Modal.eval cb 0 (Array.make lay.Layout.cdim 0.0) in
    let m0b = Array.make nc 0.0 in
    let vtb = Array.make nc 0.0 in
    let count = ref 0 in
    Grid.iter_cells lay.Layout.cgrid (fun i c ->
        if flagged prim i then begin
          incr count;
          Field.read_block prim.m0 c m0b;
          if not (Modal.cell_average cb m0b > n_floor) then begin
            Array.fill m0b 0 nc 0.0;
            m0b.(0) <- n_floor /. psi0;
            Field.write_block prim.m0 c m0b
          end;
          Field.read_block prim.vth2 c vtb;
          if not (Modal.cell_average cb vtb > vth2_floor) then begin
            Array.fill vtb 0 nc 0.0;
            vtb.(0) <- vth2_floor /. psi0;
            Field.write_block prim.vth2 c vtb
          end;
          let ud = Field.data prim.u in
          Array.fill ud (Field.offset prim.u c) (lay.Layout.vdim * nc) 0.0
        end);
    !count
  end
