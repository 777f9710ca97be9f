(* Velocity moments of the distribution function.

   For a phase-space basis function w_n = phi_{kappa_n}(xi_x) prod_j
   P~_{nu_j}(xi_v_j), the velocity integrals reduce to exact per-dimension
   tables I_r[nu] = int xi^r P~_nu dxi (computed symbolically in
   dg_kernels.Tensors), so moments are quadrature-free too:

     M0        (density)       int f dv
     M1_k      (momentum flux) int v_k f dv
     M2        (energy x 2/m)  int |v|^2 f dv

   [make] tabulates these weights once per (velocity cell, moment, mode)
   and keeps, per (velocity cell, moment) row, only the nonzeros, modes
   ascending.  Every moment is then one walk adding [jac * (scale * w) *
   f_n] in a fixed order: phase cells in grid order, and per cell the
   row's modes ascending.  The walk goes pencil by pencil (the cells along
   the last velocity dimension) in storage order, which is grid order, so
   it adds exactly the terms a per-cell loop over all modes adds, in the
   same order, less those of zero weight, which that loop skipped.  So
   every float is reproducible: J must be exactly q M1 of the discrete f,
   or the discrete energy balance J.E = d/dt KE breaks.

   Moments couple the phase-space grid to the configuration-space grid; the
   velocity reduction is purely local to a configuration cell (no global
   reduction — the paper's two-level decomposition relies on this). *)

module Layout = Dg_kernels.Layout
module Tensors = Dg_kernels.Tensors
module Modal = Dg_basis.Modal
module Mi = Dg_util.Multi_index
module Grid = Dg_grid.Grid
module Field = Dg_grid.Field

(* A compacted weight table.  Row [iv * nblk + blk] (velocity cell [iv],
   weight block [blk]: M0, M1_k, M2) is entries [start.(row) ..
   start.(row + 1) - 1], modes ascending, and the rows of a velocity cell
   follow one another.  Entry [e] adds [coef.(e) * f_{ix.(2 e)}] to
   coefficient [ix.(2 e + 1) = cfg + blk * nc] of a stack of
   configuration blocks, [cfg] below [width]: its mode's configuration
   index, or 0 in a table of coefficient-0 entries. *)
type table = {
  width : int;
  start : int array;
  ix : int array;
  coef : float array;
}

(* Runs of weight blocks a walk adds up: run [s] takes blocks [blk.(s) ..
   blk.(s) + n.(s) - 1] into output field [field.(s)], stacked from its
   component 0. *)
type runs = { field : int array; blk : int array; n : int array }

(* How many scales keep a table of [jac * (scale * w)]: an app passes its
   species' charge, the collision operators 1.0. *)
let cached_scales = 4

type t = {
  lay : Layout.t;
  np : int;
  nc : int;
  cfg_of : int array; (* phase basis idx -> config basis idx *)
  jac : float; (* velocity reference-map Jacobian: prod_j dv_j / 2 *)
  nv : int; (* velocity cells: phase cell idx = config idx * nv + velocity idx *)
  nblk : int; (* weight blocks per velocity cell: M0, M1_k, M2 *)
  weights : table; (* the nonzero weights w *)
  totals : table; (* their coefficient-0 entries, [jac * w] *)
  scales : float array; (* the scales with a table in [scaled] *)
  scaled : table array;
  mutable nscaled : int;
  mutable next : int; (* the slot a new scale takes once all are used *)
  cell_sum : Field.t; (* a total's per-configuration-cell sums *)
  m0_run : runs;
  m1_run : runs;
  m2_run : runs;
  raw_runs : runs; (* M0, M1_k, M2 into fields 0, 1, 2 *)
}

(* The entries of [nrows] dense rows of [np] weights, [rows] row-major,
   that a per-cell pass over every mode adds: mode [n] of weight [w] when
   [scale *. w <> 0.0], with coefficient [jac *. (scale *. w)].  Counted,
   then filled, so a large layout builds no list. *)
let compact ~nblk ~nc ~np ~cfg_of (rows : float array) ~jac ~scale =
  let nrows = Array.length rows / np in
  let start = Array.make (nrows + 1) 0 in
  for r = 0 to nrows - 1 do
    let k = ref 0 in
    for n = 0 to np - 1 do
      if scale *. rows.((r * np) + n) <> 0.0 then incr k
    done;
    start.(r + 1) <- start.(r) + !k
  done;
  let nnz = start.(nrows) in
  let ix = Array.make (2 * nnz) 0 and coef = Array.make nnz 0.0 in
  let e = ref 0 and width = ref 1 in
  for r = 0 to nrows - 1 do
    let blk_off = r mod nblk * nc in
    for n = 0 to np - 1 do
      let w = rows.((r * np) + n) in
      if scale *. w <> 0.0 then begin
        let cfg = cfg_of.(n) in
        if cfg >= !width then width := cfg + 1;
        ix.(2 * !e) <- n;
        ix.((2 * !e) + 1) <- cfg + blk_off;
        coef.(!e) <- jac *. (scale *. w);
        incr e
      end
    done
  done;
  { width = !width; start; ix; coef }

(* The terms a per-cell pass adds for the nonzero weights [w] times a
   finite [scale], with coefficient [jac *. (scale *. w)]: [w]'s entries
   less any whose [scale *. w] underflows to zero, and with [~cfg0] less
   those off configuration coefficient 0.  When it drops none, the table
   shares [w]'s indices. *)
let rescale ?(cfg0 = false) ~nc (w : table) ~jac ~scale =
  let keep e =
    scale *. w.coef.(e) <> 0.0 && ((not cfg0) || w.ix.((2 * e) + 1) mod nc = 0)
  in
  let nrows = Array.length w.start - 1 in
  let start = Array.make (nrows + 1) 0 in
  for r = 0 to nrows - 1 do
    let k = ref 0 in
    for e = w.start.(r) to w.start.(r + 1) - 1 do
      if keep e then incr k
    done;
    start.(r + 1) <- start.(r) + !k
  done;
  let nnz = start.(nrows) in
  let coef = Array.make nnz 0.0 in
  let width = if cfg0 then 1 else w.width in
  if nnz = Array.length w.coef then begin
    for e = 0 to nnz - 1 do
      coef.(e) <- jac *. (scale *. w.coef.(e))
    done;
    { width; start = w.start; ix = w.ix; coef }
  end
  else begin
    let ix = Array.make (2 * nnz) 0 and k = ref 0 in
    for e = 0 to Array.length w.coef - 1 do
      if keep e then begin
        ix.(2 * !k) <- w.ix.(2 * e);
        ix.((2 * !k) + 1) <- w.ix.((2 * e) + 1);
        coef.(!k) <- jac *. (scale *. w.coef.(e));
        incr k
      end
    done;
    { width; start; ix; coef }
  end

(* [t]'s weights, dense again: zero where dropped. *)
let dense_weights t =
  let w = t.weights and np = t.np in
  let nrows = Array.length w.start - 1 in
  let rows = Array.make (nrows * np) 0.0 in
  for r = 0 to nrows - 1 do
    for e = w.start.(r) to w.start.(r + 1) - 1 do
      rows.((r * np) + w.ix.(2 * e)) <- w.coef.(e)
    done
  done;
  rows

(* The table of [jac * (scale * w)]: built once per distinct scale (bits
   compared), kept in one of [cached_scales] slots.  A scale that is not
   finite keeps the zero weights too, whose terms are NaN. *)
let scaled t scale =
  let found = ref (-1) in
  for i = 0 to t.nscaled - 1 do
    if Int64.equal (Int64.bits_of_float t.scales.(i)) (Int64.bits_of_float scale)
    then found := i
  done;
  if !found >= 0 then t.scaled.(!found)
  else begin
    let tbl =
      if Float.is_finite scale then rescale ~nc:t.nc t.weights ~jac:t.jac ~scale
      else
        compact ~nblk:t.nblk ~nc:t.nc ~np:t.np ~cfg_of:t.cfg_of
          (dense_weights t) ~jac:t.jac ~scale
    in
    let i =
      if t.nscaled < cached_scales then begin
        t.nscaled <- t.nscaled + 1;
        t.nscaled - 1
      end
      else begin
        let i = t.next in
        t.next <- (i + 1) mod cached_scales;
        i
      end
    in
    t.scales.(i) <- scale;
    t.scaled.(i) <- tbl;
    tbl
  end

let make (lay : Layout.t) =
  let basis = lay.Layout.basis in
  let np = Modal.num_basis basis in
  let cdim = lay.Layout.cdim and vdim = lay.Layout.vdim in
  let vgrid = lay.Layout.vgrid in
  let mi n = Mi.to_array (Modal.index basis n) in
  let cfg_of =
    Array.init np (fun n ->
        Option.get (Modal.find lay.Layout.cbasis (Array.sub (mi n) 0 cdim)))
  in
  let vel_of = Array.init np (fun n -> Array.sub (mi n) cdim vdim) in
  let { Tensors.i0; i1; i2 } = Tensors.vspace_tables (Modal.max_1d_degree basis) in
  let dvv = Grid.dx vgrid and lower = Grid.lower vgrid in
  let nv = Grid.num_cells vgrid and nblk = vdim + 2 in
  let dense = Array.make (nv * nblk * np) 0.0 in
  let vc = Array.make vdim 0 and vcenter = Array.make vdim 0.0 in
  for iv = 0 to nv - 1 do
    Grid.coords_of_linear vgrid iv vc;
    for d = 0 to vdim - 1 do
      vcenter.(d) <- lower.(d) +. ((float_of_int vc.(d) +. 0.5) *. dvv.(d))
    done;
    let row blk = ((iv * nblk) + blk) * np in
    (* v_k = c_k + (dv_k/2) xi_k: M0 weighs f by 1, M1_k by v_k, M2 by
       |v|^2, each a product over directions of exact 1D table entries.
       Plain loops with local refs: closures here would allocate enough
       garbage to raise a large layout's peak RSS. *)
    for n = 0 to np - 1 do
      let nu = vel_of.(n) and m0 = ref 1.0 and m2 = ref 0.0 in
      for j = 0 to vdim - 1 do
        m0 := !m0 *. i0.(nu.(j))
      done;
      dense.(row 0 + n) <- !m0;
      for k = 0 to vdim - 1 do
        let c = vcenter.(k) and dv = dvv.(k) in
        let m1k = ref 1.0 and m2k = ref 1.0 in
        for j = 0 to vdim - 1 do
          let x = nu.(j) in
          if j = k then begin
            m1k := !m1k *. ((c *. i0.(x)) +. (0.5 *. dv *. i1.(x)));
            m2k :=
              !m2k
              *. ((c *. c *. i0.(x))
                 +. (c *. dv *. i1.(x))
                 +. (0.25 *. dv *. dv *. i2.(x)))
          end
          else begin
            m1k := !m1k *. i0.(x);
            m2k := !m2k *. i0.(x)
          end
        done;
        dense.(row (1 + k) + n) <- !m1k;
        m2 := !m2 +. !m2k
      done;
      dense.(row (vdim + 1) + n) <- !m2
    done
  done;
  let jac = Array.fold_left (fun acc dv -> acc *. (dv /. 2.0)) 1.0 dvv in
  let nc = Layout.num_cbasis lay in
  let nonzero = compact ~nblk ~nc ~np ~cfg_of dense ~jac:1.0 ~scale:1.0 in
  let run field blk n = { field = [| field |]; blk = [| blk |]; n = [| n |] } in
  {
    lay;
    np;
    nc;
    cfg_of;
    jac;
    nv;
    nblk;
    weights = nonzero;
    totals = rescale ~cfg0:true ~nc nonzero ~jac ~scale:1.0;
    scales = Array.make cached_scales 0.0;
    scaled = Array.make cached_scales nonzero;
    nscaled = 0;
    next = 0;
    cell_sum = Field.create ~nghost:0 lay.Layout.cgrid ~ncomp:1;
    m0_run = run 0 0 1;
    m1_run = run 0 1 vdim;
    m2_run = run 0 (vdim + 1) 1;
    raw_runs =
      { field = [| 0; 1; 2 |]; blk = [| 0; 1; vdim + 1 |]; n = [| 1; vdim; 1 |] };
  }

let check_field ~(fld : Field.t) (grid : Grid.t) ~ncomp =
  let cells = Grid.cells (Field.grid fld) and want = Grid.cells grid in
  if Array.length cells <> Array.length want then
    invalid_arg "Moments: a field of the wrong rank";
  for d = 0 to Array.length want - 1 do
    if cells.(d) <> want.(d) then invalid_arg "Moments: a field on the wrong grid"
  done;
  if Field.ncomp fld < ncomp then
    invalid_arg "Moments: a field with too few components"

(* One run along one pencil of [len] cells: the first cell's block at
   [foff0] in [fd], the next ones [fstep] apart, and their velocity cells'
   rows of the run's first block [nblk] apart from [row0]; the run's [n]
   blocks into [od], its stack of configuration coefficients at [o]
   (less the first block's [blk * nc]).  Returns the offset of the last
   block it read, for the walk to check.  The row lookups stay checked:
   a pencil walked past its end meets the end of the table there. *)
let run_pencil od o fd ~foff0 ~fstep ~len (tbl : table) ~row0 ~nblk ~n =
  let start = tbl.start and ix = tbl.ix and coef = tbl.coef in
  let foff = ref foff0 and row = ref row0 in
  for _ = 1 to len do
    let fo = !foff and r = !row in
    for e = start.(r) to start.(r + n) - 1 do
      let i = o + Array.unsafe_get ix ((2 * e) + 1) in
      Array.unsafe_set od i
        (Array.unsafe_get od i
        +. Array.unsafe_get coef e
           *. Array.unsafe_get fd (fo + Array.unsafe_get ix (2 * e)))
    done;
    foff := fo + fstep;
    row := r + nblk
  done;
  !foff - fstep

(* The one moment walk: the runs [r] of [tbl] over [f], into [outs].  The
   pencils (the cells along the last, velocity, dimension) are taken in
   storage order, each from one offset in [f] and one per output, whose
   configuration block is the same all along the pencil; its cells step by
   [Field.cell_step], and per cell a run's blocks are one span of entries.
   Along a pencil, the runs go one after another: each output field is
   some one run's, so it still receives its terms cell by cell in grid
   order.  Under VMDG_BOUNDS_CHECK=1 each output's block offset, and the
   first and the last block offset a run read along the pencil, are
   checked against the coordinates they stand for (the blocks between lie
   on equal steps from one to the other); the check follows the run, so it
   reports a misstep rather than prevents it.  The field shapes are
   checked up front, so the accesses need no checks of their own.  An
   output must not alias another, nor f. *)
let walk t (tbl : table) (r : runs) ~(f : Field.t) ~(outs : Field.t array) =
  let lay = t.lay in
  let grid = lay.Layout.grid and cdim = lay.Layout.cdim in
  let nruns = Array.length r.field and nc = t.nc in
  check_field ~fld:f grid ~ncomp:t.np;
  for s = 0 to nruns - 1 do
    check_field ~fld:outs.(r.field.(s)) lay.Layout.cgrid
      ~ncomp:(((r.n.(s) - 1) * nc) + tbl.width)
  done;
  let chk = Field.bounds_check in
  let cells = Grid.cells grid in
  let pdim = Array.length cells in
  let last = pdim - 1 in
  let len = cells.(last) in
  let fd = Field.data f and fstep = Field.cell_step f last in
  let nblk = t.nblk and nv = t.nv in
  let c = Array.make pdim 0 and cc = Array.make (if chk then cdim else 0) 0 in
  let ods = Array.map Field.data outs in
  let ooff = Array.make (Array.length outs) 0 in
  for p = 0 to (Grid.num_cells grid / len) - 1 do
    (* the pencil's outer coordinates, as an odometer *)
    if p > 0 then begin
      let d = ref (last - 1) in
      c.(!d) <- c.(!d) + 1;
      while c.(!d) = cells.(!d) do
        c.(!d) <- 0;
        decr d;
        c.(!d) <- c.(!d) + 1
      done
    end;
    c.(last) <- 0;
    let foff0 = Field.unsafe_cell_offset f c in
    for k = 0 to Array.length outs - 1 do
      ooff.(k) <- Field.unsafe_leading_offset outs.(k) c
    done;
    if chk then begin
      Array.blit c 0 cc 0 cdim;
      for k = 0 to Array.length outs - 1 do
        Field.check_walked_offset outs.(k) cc ~dir:0 ~by:0 ooff.(k)
      done
    end;
    (* velocity cell of the pencil's first cell: the phase cell's linear
       index modulo nv, and a pencil's cells are consecutive there *)
    let iv0 = p * len mod nv in
    for s = 0 to nruns - 1 do
      let k = r.field.(s) and blk = r.blk.(s) in
      let read =
        run_pencil ods.(k) (ooff.(k) - (blk * nc)) fd ~foff0 ~fstep ~len tbl
          ~row0:((iv0 * nblk) + blk) ~nblk ~n:r.n.(s)
      in
      if chk then begin
        Field.check_walked_offset f c ~dir:last ~by:0 foff0;
        Field.check_walked_offset f c ~dir:last ~by:(len - 1) read
      end
    done
  done

(* The run [r] of the moment weights, times [scale], into [out]. *)
let pass t r ~scale ~f ~out = walk t (scaled t scale) r ~f ~outs:[| out |]

let m0 t ~f ~out = pass t t.m0_run ~scale:1.0 ~f ~out
let m2 t ~f ~out = pass t t.m2_run ~scale:1.0 ~f ~out

(* Current density: J_k += q * M1_k, accumulated for each velocity direction
   into components k*ncbasis of [out] (so [out] can hold Jx, Jy, Jz blocks).
   Velocity directions beyond vdim carry no current. *)
let accumulate_current t ~charge ~f ~out = pass t t.m1_run ~scale:charge ~f ~out

(* Charge density: rho += q * M0. *)
let accumulate_charge t ~charge ~f ~out = pass t t.m0_run ~scale:charge ~f ~out

(* M0, M1_k and M2 in one walk: each output receives its own terms in the
   order its own pass adds them, so the three are bitwise those passes. *)
let raw_moments t ~f ~m0 ~m1 ~m2 =
  walk t (scaled t 1.0) t.raw_runs ~f ~outs:[| m0; m1; m2 |]

(* Scalar totals over the domain (for conservation diagnostics): the domain
   integral of a config-space DG expansion is the sum over cells of
   coeff_0 * sqrt(2)^cdim * cellvol / 2^cdim. *)
let config_integral (lay : Layout.t) sum =
  let cdim = lay.Layout.cdim in
  let jac = Grid.cell_volume lay.Layout.cgrid /. (2.0 ** float_of_int cdim) in
  sum *. (sqrt 2.0 ** float_of_int cdim) *. jac

let total_of_config_field (lay : Layout.t) ~(fld : Field.t) ~comp_off =
  let acc = ref 0.0 in
  Grid.iter_cells lay.Layout.cgrid (fun _ c ->
      acc := !acc +. Field.get fld c comp_off);
  config_integral lay !acc

(* Domain integral of the moment of run [r] (one block): the walk of its
   coefficient-0 entries, [jac * w], into one sum per configuration cell,
   then the sum of those in configuration-grid order.  These are the terms
   the moment into a zeroed field adds to its coefficients 0, in the same
   order, and [total_of_config_field] sums those the same way, so the bits
   are those of the two in turn. *)
let total t r ~f =
  let s = t.cell_sum in
  Field.fill s 0.0;
  walk t t.totals r ~f ~outs:[| s |];
  let sd = Field.data s in
  let acc = ref 0.0 in
  for i = 0 to Array.length sd - 1 do
    acc := !acc +. sd.(i)
  done;
  config_integral t.lay !acc

(* Total particle number: int f dz. *)
let total_mass t ~f = total t t.m0_run ~f

(* Total particle kinetic energy: (m/2) int |v|^2 f dz. *)
let total_kinetic_energy t ~mass ~f =
  0.5 *. mass *. total t t.m2_run ~f
