(* The one hyperbolic DG sweep and the kernel selection it runs on
   (interface docs in sweep.mli).  Each face is visited once, from the
   cell above it: the lower cell's trace is restricted, one flux G is
   formed on the face basis, and out_L -= L_hi G, out_R += L_lo G.  The
   body reads only per-direction data, so it never asks which operator it
   serves, and keeps all scratch per call.  It walks the grid pencil by
   pencil (the cells along the last, velocity, dimension): one offset
   computation per pencil, then offset arithmetic, with the per-direction
   constants hoisted out of the cell loop.  The tensor-application
   helpers, the face flux and the face speed sit beside the sweep so that
   ocamlopt inlines them into it (dune's dev profile compiles with
   -opaque, which stops inlining across modules): a generated kernel is
   called through the external of its kind, and on the generated path no
   call passes or returns a boxed float, so a cell-direction allocates
   nothing.  The closure calls left per cell-direction are the α fill and
   the LBO's hooks; per pencil, the pencil hook. *)

module Layout = Dg_kernels.Layout
module Tensors = Dg_kernels.Tensors
module K = Dg_genkernels.Kernels
module Sparse = Dg_kernels.Sparse
module Modal = Dg_basis.Modal
module Grid = Dg_grid.Grid
module Field = Dg_grid.Field
module Obs = Dg_obs.Obs
module Flux = Dg_kernels.Flux

type t3_op = Gen3 of int | Interp3 of Sparse.t3
type t2_op = Gen2 of int | Interp2 of Sparse.t2
type vol_op = Stream of int | Alpha of t3_op

type ops = {
  vol : vol_op;
  nface : int;
  restrict_lo : t2_op;
  restrict_hi : t2_op;
  face : t3_op;
  lift_lo : t2_op;
  lift_hi : t2_op;
  batch : K.batch option;
  mults : int option;
}

let interpreted (dk : Tensors.dir_kernels) =
  let fc = dk.Tensors.face in
  {
    vol = Alpha (Interp3 dk.Tensors.vol);
    nface = fc.Tensors.nface;
    restrict_lo = Interp2 fc.Tensors.restrict_lo;
    restrict_hi = Interp2 fc.Tensors.restrict_hi;
    face = Interp3 fc.Tensors.triple;
    lift_lo = Interp2 fc.Tensors.lift_lo;
    lift_hi = Interp2 fc.Tensors.lift_hi;
    batch = None;
    mults = None;
  }

let select ~use_generated (lay : Layout.t) (dk : Tensors.dir_kernels) =
  let basis = lay.Layout.basis in
  let bundle =
    if use_generated then
      K.find
        ~family:(Modal.family_name (Modal.family basis))
        ~poly_order:(Modal.poly_order basis) ~cdim:lay.Layout.cdim
        ~vdim:lay.Layout.vdim ~dir:dk.Tensors.dir
    else None
  in
  match bundle with
  | Some b ->
      Obs.count "dispatch.specialized_dirs" 1;
      if b.K.batch <> None then Obs.count "dispatch.batched_dirs" 1;
      (* codegen-pipeline accounting: multiplications the CSE pass removed
         and parts (CSE scopes) the chunker produced for this direction *)
      Obs.count "kernels.cse_saved_mults" (b.K.mults_raw - b.K.mults);
      Obs.count "kernels.chunks" b.K.chunks;
      {
        vol =
          (match b.K.vol with
          | K.Stream id -> Stream id
          | K.Alpha id -> Alpha (Gen3 id));
        nface = dk.Tensors.face.Tensors.nface;
        restrict_lo = Gen2 b.K.restrict_lo;
        restrict_hi = Gen2 b.K.restrict_hi;
        face = Gen3 b.K.face;
        lift_lo = Gen2 b.K.lift_lo;
        lift_hi = Gen2 b.K.lift_hi;
        batch = b.K.batch;
        mults = Some b.K.mults;
      }
  | None ->
      Obs.count "dispatch.interpreted_dirs" 1;
      interpreted dk

type speed =
  | No_penalty
  | Stream_speed of Flux.stream_ctx
  | Bound of { support : int array; maxval : float array }

type 'a dir = {
  dir : int;
  ops : ops;
  fill : 'a -> float array -> float array -> unit;
  speed : speed;
  face_alpha : (float array -> float array -> unit) option;
  volume : ('a -> float array -> foff:int -> float array -> ooff:int -> unit) option;
  face :
    ('a ->
    float array ->
    foff_l:int ->
    foff_r:int ->
    float array ->
    ooff_l:int ->
    ooff_r:int ->
    unit)
    option;
  boundary :
    ('a -> Tensors.side -> float array -> foff:int -> float array -> ooff:int -> unit)
    option;
}

type timers = {
  mutable since : float;
  mutable fill_s : float;
  mutable volume_s : float;
  mutable surface_s : float;
}

let timers () = { since = 0.0; fill_s = 0.0; volume_s = 0.0; surface_s = 0.0 }

(* Never written: untraced sweeps only read [since] behind the flag. *)
let untimed = timers ()

let[@inline] apply_t3 op ~scale alpha f ~foff out ~ooff =
  match op with
  | Gen3 id -> K.t3 id ~scale alpha f ~foff out ~ooff
  | Interp3 t -> Sparse.apply_t3_off t ~scale alpha f ~foff out ~ooff

let[@inline] apply_t2 op ~scale f ~foff out ~ooff =
  match op with
  | Gen2 id -> K.t2 id ~scale f ~foff out ~ooff
  | Interp2 t -> Sparse.apply_t2_off t ~scale f ~foff out ~ooff

(* The flux of one face in face form (Tensors.face): with a = R_hi f_L
   and b = R_lo f_R the face traces,
     S = a + b,   J = b - a,   G = rdx (F alpha S) - lam rdx J.
   A face scratch of [3 nf] at [s] holds the traces, then S and J in
   place, then G from [s + 2 nf].  [face_sj] forms S and J into a zeroed
   scratch, [face_penalty] subtracts the penalty term from G. *)
let[@inline] face_sj ops fd ~foff_l ~foff_r face s =
  let nf = ops.nface in
  apply_t2 ops.restrict_hi ~scale:1.0 fd ~foff:foff_l face ~ooff:s;
  apply_t2 ops.restrict_lo ~scale:1.0 fd ~foff:foff_r face ~ooff:(s + nf);
  for q = s to s + nf - 1 do
    let a = Array.unsafe_get face q and b = Array.unsafe_get face (q + nf) in
    Array.unsafe_set face q (a +. b);
    Array.unsafe_set face (q + nf) (b -. a)
  done

let[@inline] face_penalty ops ~rdx ~lam face s =
  if lam <> 0.0 then begin
    let nf = ops.nface in
    let sc = lam *. rdx and g = s + (2 * nf) and j = s + nf in
    for q = 0 to nf - 1 do
      Array.unsafe_set face (g + q)
        (Array.unsafe_get face (g + q) -. (sc *. Array.unsafe_get face (j + q)))
    done
  end

(* The face's flux into [face.(2 nf ..)], [face] the sweep's face
   scratch.  Allocates nothing. *)
let[@inline] face_flux ops ~rdx ~lam alpha fd ~foff_l ~foff_r face =
  let nf = ops.nface in
  Array.fill face 0 (3 * nf) 0.0;
  face_sj ops fd ~foff_l ~foff_r face 0;
  apply_t3 ops.face ~scale:rdx alpha face ~foff:0 face ~ooff:(2 * nf);
  face_penalty ops ~rdx ~lam face 0

(* The penalty speed of a face whose flux expansion is [a] from [aoff]:
   the bodies of Flux.streaming_max_speed and Flux.accel_max_speed (whose
   weights [maxval] are gathered to the support order), inlined here so
   that the speed never crosses a call as a boxed float. *)
let[@inline] face_speed sp vcenter a aoff =
  match sp with
  | No_penalty -> 0.0
  | Stream_speed s -> Float.abs vcenter.(s.Flux.vd) +. s.Flux.half_dv
  | Bound { support; maxval } ->
      let acc = ref 0.0 in
      for i = 0 to Array.length support - 1 do
        acc := !acc +. (Float.abs a.(aoff + support.(i)) *. maxval.(i))
      done;
      !acc

(* Cells per batch: the lanes of the generated batch kernels. *)
let lanes = 4

(* The fluxes of the lower faces of lanes [k0 ..] of a batch, as
   [face_flux] forms each: lane k's face lies between the cells at
   [foff_l + k fstep] and [foff_r + k fstep], its flux expansion is
   [alpha4.(k np ..)] and its penalty speed [lams.(k)], and its scratch
   (traces, S and J, G) is [face4.(3 k nface ..)].  The restrictions and
   the penalty term run per lane, the face triple as one batch kernel; a
   lane below [k0] has no face, and its zero traces give a G nobody
   reads. *)
let[@inline] face_flux_x4 ops (b : K.batch) ~k0 ~rdx ~lams alpha4 fd ~foff_l
    ~foff_r ~fstep face4 =
  let nf = ops.nface in
  let w = 3 * nf in
  Array.fill face4 0 (lanes * w) 0.0;
  for k = k0 to lanes - 1 do
    face_sj ops fd ~foff_l:(foff_l + (k * fstep)) ~foff_r:(foff_r + (k * fstep))
      face4 (k * w)
  done;
  K.t3_x4 b.K.batch_face ~scale:rdx alpha4
    ~astep:(Array.length alpha4 / lanes)
    face4 ~foff:0 ~fstep:w face4 ~ooff:(2 * nf) ~ostep:w;
  for k = k0 to lanes - 1 do
    face_penalty ops ~rdx ~lam:lams.(k) face4 (k * w)
  done

let[@inline] mark tr tm = if tr then tm.since <- Obs.now ()
let[@inline] lap tm = Obs.now () -. tm.since

let no_pencil _ _ = ()

(* A direction runs four cells at a time when its ops carry batch
   kernels and no hook adds terms of its own. *)
let batchable d =
  d.ops.batch <> None && d.face_alpha = None && d.volume = None
  && d.face = None && d.boundary = None

(* What the one-cell body of a sweep reads, fixed per [run] call: the
   call's fields, context and scratch, and the per-direction constants. *)
type 'a walk = {
  dirs : 'a dir array;
  ctx : 'a;
  f : Field.t;
  out : Field.t;
  fd : float array;
  od : float array;
  cells : int array;
  cdim : int;
  dvx : float array;  (* velocity-cell widths *)
  chk : bool;  (* VMDG_BOUNDS_CHECK=1 *)
  tr : bool;  (* timed *)
  tm : timers;
  alpha : float array;
  falpha : float array;
  vcenter : float array;
  c : int array;
  face : float array;
  rdxs : float array;  (* per direction: 1/dx *)
  rdx2s : float array;  (* 2/dx *)
  fstep : int array;  (* neighbour steps in f and out *)
  ostep : int array;
}

(* Direction [i] of the cell at [foff], [ooff] whose coordinates are
   [w.c] and velocity-cell centers [w.vcenter]: the fill, the volume term,
   the lower face, the upper ghost face of a configuration direction and
   the velocity-domain boundary hooks.  Inlined into the walk, so that it
   reads the call's data as directly as a loop body would. *)
let[@inline] cell_dir w i ~foff ~ooff =
    let d = w.dirs.(i) in
    let dir = d.dir and ops = d.ops in
    let ctx = w.ctx and fd = w.fd and od = w.od and alpha = w.alpha in
    let vcenter = w.vcenter and c = w.c and face = w.face in
    let is_cfg = dir < w.cdim in
    let rdx = w.rdxs.(i) in
    let gof = 2 * ops.nface in
    mark w.tr w.tm;
    d.fill ctx vcenter alpha;
    if w.tr then w.tm.fill_s <- w.tm.fill_s +. lap w.tm;
    (* volume term *)
    mark w.tr w.tm;
    (match ops.vol with
    | Stream id ->
        (* vd = dir for configuration directions (Layout pairing) *)
        K.stream id ~wv:vcenter.(dir) ~dv:w.dvx.(dir) ~rdx2:w.rdx2s.(i) fd ~foff od
          ~ooff
    | Alpha op -> apply_t3 op ~scale:w.rdx2s.(i) alpha fd ~foff od ~ooff);
    (match d.volume with Some h -> h ctx fd ~foff od ~ooff | None -> ());
    if w.tr then w.tm.volume_s <- w.tm.volume_s +. lap w.tm;
    (* lower face of cell [c]: L = c - e_dir (possibly ghost), R = c;
       velocity directions use zero-flux domain boundaries *)
    if is_cfg || c.(dir) > 0 then begin
      mark w.tr w.tm;
      let a =
        match d.face_alpha with
        | None -> alpha
        | Some h ->
            h alpha w.falpha;
            w.falpha
      in
      let lam = face_speed d.speed vcenter a 0 in
      let foff_l = foff - w.fstep.(i) in
      if w.chk then Field.check_walked_offset w.f c ~dir ~by:(-1) foff_l;
      face_flux ops ~rdx ~lam a fd ~foff_l ~foff_r:foff face;
      (* update the left cell unless it is a ghost *)
      if c.(dir) > 0 then begin
        let ooff_l = ooff - w.ostep.(i) in
        if w.chk then Field.check_walked_offset w.out c ~dir ~by:(-1) ooff_l;
        apply_t2 ops.lift_hi ~scale:(-1.0) face ~foff:gof od ~ooff:ooff_l;
        apply_t2 ops.lift_lo ~scale:1.0 face ~foff:gof od ~ooff;
        match d.face with
        | Some h -> h ctx fd ~foff_l ~foff_r:foff od ~ooff_l ~ooff_r:ooff
        | None -> ()
      end
      else apply_t2 ops.lift_lo ~scale:1.0 face ~foff:gof od ~ooff;
      if w.tr then w.tm.surface_s <- w.tm.surface_s +. lap w.tm
    end;
    (* upper boundary face (configuration directions only; ghost
       data): L = c (interior), R = ghost *)
    if is_cfg && c.(dir) = w.cells.(dir) - 1 then begin
      mark w.tr w.tm;
      let lam = face_speed d.speed vcenter alpha 0 in
      let foff_r = foff + w.fstep.(i) in
      if w.chk then Field.check_walked_offset w.f c ~dir ~by:1 foff_r;
      face_flux ops ~rdx ~lam alpha fd ~foff_l:foff ~foff_r face;
      apply_t2 ops.lift_hi ~scale:(-1.0) face ~foff:gof od ~ooff;
      if w.tr then w.tm.surface_s <- w.tm.surface_s +. lap w.tm
    end;
    (* velocity-domain boundary faces *)
    match d.boundary with
    | Some h when not is_cfg ->
        mark w.tr w.tm;
        if c.(dir) = 0 then h ctx Tensors.Lo fd ~foff od ~ooff;
        if c.(dir) = w.cells.(dir) - 1 then h ctx Tensors.Hi fd ~foff od ~ooff;
        if w.tr then w.tm.surface_s <- w.tm.surface_s +. lap w.tm
    | _ -> ()

(* The grid of [f] is walked pencil by pencil: the cells that differ only
   in the last (velocity) coordinate, in storage order, which is
   Grid.iter_cells' order.  A pencil's first block offset is computed from
   its coordinates, the rest step by [Field.cell_step], and a neighbour
   across direction [dir] is one [cell_step dir] away.  Under
   VMDG_BOUNDS_CHECK=1 every offset so derived is checked against the
   coordinates it stands for.

   When a velocity direction is [batchable], each pencil runs in batches
   of [lanes] consecutive cells, then its remaining cells one at a time.
   A batch takes each direction in turn over all its cells.  A batchable
   direction fills every lane's flux expansion, applies the batched volume
   term, forms the lanes' lower-face fluxes, then adds every lane's
   lift_lo, then every lane's lift_hi; any other direction runs its
   one-cell body lane by lane.  An output block so receives its terms in
   the order the one-cell walk gives them: per direction, in direction
   order, its own volume term and lower-face lift (and upper ghost face);
   then its upper neighbours' lift_hi.  For a direction other than the
   pencil's, that neighbour lies in a later pencil.  Along the pencil it
   is the next lane, whose lift_hi follows every lift_lo, or a later
   batch, provided the pencil direction is the last one swept, which
   [run] checks.  So the batch walk adds the same terms in the same order
   as the one-cell walk, and its results are bitwise the same. *)
let run ?timers ?(pencil = no_pencil) (lay : Layout.t) (dirs : 'a dir array)
    (ctx : 'a) ~(f : Field.t) ~(out : Field.t) =
  let tr, tm = match timers with Some tm -> (true, tm) | None -> (false, untimed) in
  let chk = Field.bounds_check in
  let grid = Field.grid f in
  let cells = Grid.cells grid in
  let vlo = Grid.lower lay.Layout.vgrid and dvx = Grid.dx lay.Layout.vgrid in
  let pdim = lay.Layout.pdim and cdim = lay.Layout.cdim in
  let vdim = lay.Layout.vdim in
  let last = pdim - 1 and vlast = vdim - 1 in
  let ndirs = Array.length dirs in
  let fd = Field.data f and od = Field.data out in
  (* per-call scratch: flux expansion and its lower-face twin,
     velocity-cell centers, cell coordinates, face traces and flux *)
  let np = Layout.num_basis lay in
  let alpha = Array.make np 0.0 and falpha = Array.make np 0.0 in
  let vcenter = Array.make vdim 0.0 and c = Array.make pdim 0 in
  let nface = Array.fold_left (fun m d -> max m d.ops.nface) 0 dirs in
  let face = Array.make (3 * nface) 0.0 in
  (* per-direction constants: 1/dx, 2/dx, neighbour steps in f and out *)
  let rdxs = Array.map (fun d -> 1.0 /. (Grid.dx grid).(d.dir)) dirs in
  let rdx2s = Array.map (fun r -> 2.0 *. r) rdxs in
  let fstep = Array.map (fun d -> Field.cell_step f d.dir) dirs in
  let ostep = Array.map (fun d -> Field.cell_step out d.dir) dirs in
  let fstep_last = Field.cell_step f last in
  let ostep_last = Field.cell_step out last in
  (* the batch walk: each direction's batch kernels, if it runs them, and
     per lane the flux expansion, face scratch, last velocity-cell center
     and penalty speed *)
  let batches =
    Array.map
      (fun d -> if d.dir >= cdim && batchable d then d.ops.batch else None)
      dirs
  in
  let batched = cells.(last) >= lanes && Array.exists Option.is_some batches in
  if batched then
    Array.iteri
      (fun i d ->
        if d.dir = last && i <> ndirs - 1 then
          invalid_arg "Sweep.run: the pencil direction must be swept last")
      dirs;
  let alpha4 = Array.make (if batched then lanes * np else 0) 0.0 in
  let face4 = Array.make (if batched then lanes * 3 * nface else 0) 0.0 in
  let vl = Array.make lanes 0.0 and lams = Array.make lanes 0.0 in
  let w =
    { dirs; ctx; f; out; fd; od; cells; cdim; dvx; chk; tr; tm; alpha; falpha;
      vcenter; c; face; rdxs; rdx2s; fstep; ostep }
  in
  (* Under VMDG_BOUNDS_CHECK=1: lane k's offset [off + k step] stands for
     its cell's neighbour [by] cells across [dir]. *)
  let check_lanes fld ~j0 ~k0 ~dir ~by off step =
    for k = k0 to lanes - 1 do
      c.(last) <- j0 + k;
      Field.check_walked_offset fld c ~dir ~by (off + (k * step))
    done
  in
  (* [op] of lanes [k0 ..], from their face scratch into the out blocks
     at [ooff + k ostep_last] *)
  let lift_lanes op ~scale ~k0 ~nf ~ooff =
    for k = k0 to lanes - 1 do
      apply_t2 op ~scale face4 ~foff:((3 * k * nf) + (2 * nf)) od
        ~ooff:(ooff + (k * ostep_last))
    done
  in
  (* velocity direction [i], on its batch kernels [b], of the batch of
     cells [j0 ..] whose first blocks are at [foff], [ooff] *)
  let batch_dir i (b : K.batch) ~j0 foff ooff =
    let d = dirs.(i) in
    let dir = d.dir and ops = d.ops in
    let rdx = rdxs.(i) and nf = ops.nface in
    mark tr tm;
    for k = 0 to lanes - 1 do
      vcenter.(vlast) <- vl.(k);
      d.fill ctx vcenter alpha;
      Array.blit alpha 0 alpha4 (k * np) np
    done;
    if tr then tm.fill_s <- tm.fill_s +. lap tm;
    mark tr tm;
    K.t3_x4 b.K.batch_vol ~scale:rdx2s.(i) alpha4 ~astep:np fd ~foff
      ~fstep:fstep_last od ~ooff ~ostep:ostep_last;
    if tr then tm.volume_s <- tm.volume_s +. lap tm;
    (* the first lane with a lower face, the others' lying on the
       velocity-domain boundary: along the pencil, every lane but the
       pencil's first cell; across it, all lanes or none *)
    let k0 =
      if dir = last then if j0 = 0 then 1 else 0
      else if c.(dir) > 0 then 0
      else lanes
    in
    if k0 < lanes then begin
      mark tr tm;
      for k = k0 to lanes - 1 do
        vcenter.(vlast) <- vl.(k);
        lams.(k) <- face_speed d.speed vcenter alpha4 (k * np)
      done;
      let foff_l = foff - fstep.(i) and ooff_l = ooff - ostep.(i) in
      if chk then begin
        check_lanes f ~j0 ~k0 ~dir ~by:(-1) foff_l fstep_last;
        check_lanes out ~j0 ~k0 ~dir ~by:(-1) ooff_l ostep_last
      end;
      face_flux_x4 ops b ~k0 ~rdx ~lams alpha4 fd ~foff_l ~foff_r:foff
        ~fstep:fstep_last face4;
      lift_lanes ops.lift_lo ~scale:1.0 ~k0 ~nf ~ooff;
      lift_lanes ops.lift_hi ~scale:(-1.0) ~k0 ~nf ~ooff:ooff_l;
      if tr then tm.surface_s <- tm.surface_s +. lap tm
    end
  in
  (* cells [j0 ..] of the pencil, [lanes] of them, as one batch whose
     first blocks are at [foff], [ooff] *)
  let batch ~j0 foff ooff =
    for k = 0 to lanes - 1 do
      vl.(k) <- vlo.(vlast) +. ((float_of_int (j0 + k) +. 0.5) *. dvx.(vlast))
    done;
    if chk then begin
      check_lanes f ~j0 ~k0:0 ~dir:last ~by:0 foff fstep_last;
      check_lanes out ~j0 ~k0:0 ~dir:last ~by:0 ooff ostep_last
    end;
    for i = 0 to ndirs - 1 do
      match batches.(i) with
      | Some b -> batch_dir i b ~j0 foff ooff
      | None ->
          for k = 0 to lanes - 1 do
            c.(last) <- j0 + k;
            vcenter.(vlast) <- vl.(k);
            cell_dir w i ~foff:(foff + (k * fstep_last))
              ~ooff:(ooff + (k * ostep_last))
          done
    done
  in
  let walk_pencil () =
    c.(last) <- 0;
    pencil ctx c;
    for k = 0 to vlast - 1 do
      vcenter.(k) <- vlo.(k) +. ((float_of_int c.(cdim + k) +. 0.5) *. dvx.(k))
    done;
    let foff0 = Field.unsafe_cell_offset f c in
    let ooff0 = Field.unsafe_cell_offset out c in
    let nbatch = if batched then cells.(last) / lanes else 0 in
    for nb = 0 to nbatch - 1 do
      let j0 = nb * lanes in
      batch ~j0 (foff0 + (j0 * fstep_last)) (ooff0 + (j0 * ostep_last))
    done;
    for j = nbatch * lanes to cells.(last) - 1 do
      c.(last) <- j;
      let foff = foff0 + (j * fstep_last) and ooff = ooff0 + (j * ostep_last) in
      if chk then begin
        Field.check_walked_offset f c ~dir:last ~by:0 foff;
        Field.check_walked_offset out c ~dir:last ~by:0 ooff
      end;
      vcenter.(vlast) <- vlo.(vlast) +. ((float_of_int j +. 0.5) *. dvx.(vlast));
      for i = 0 to ndirs - 1 do
        cell_dir w i ~foff ~ooff
      done
    done
  in
  (* every pencil, in storage order: the outer coordinates as an odometer *)
  let rec walk d =
    if d = last then walk_pencil ()
    else
      for k = 0 to cells.(d) - 1 do
        c.(d) <- k;
        walk (d + 1)
      done
  in
  walk 0
