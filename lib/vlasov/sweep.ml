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

(* The flux of one face in face form (Tensors.face), written to
   [face.(2 nf ..)]: with a = R_hi f_L and b = R_lo f_R the face traces,
     S = a + b,   J = b - a,   G = rdx (F alpha S) - lam rdx J.
   [face] is the sweep's face scratch: traces, then S and J in place,
   then G.  Allocates nothing. *)
let[@inline] face_flux ops ~rdx ~lam alpha fd ~foff_l ~foff_r face =
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

(* The penalty speed of a face whose flux expansion is [a]: the bodies of
   Flux.streaming_max_speed and Flux.accel_max_speed (whose weights
   [maxval] are gathered to the support order), inlined here so that the
   speed never crosses a call as a boxed float. *)
let[@inline] face_speed sp vcenter a =
  match sp with
  | No_penalty -> 0.0
  | Stream_speed s -> Float.abs vcenter.(s.Flux.vd) +. s.Flux.half_dv
  | Bound { support; maxval } ->
      let acc = ref 0.0 in
      for i = 0 to Array.length support - 1 do
        acc := !acc +. (Float.abs a.(support.(i)) *. maxval.(i))
      done;
      !acc

let[@inline] mark tr tm = if tr then tm.since <- Obs.now ()
let[@inline] lap tm = Obs.now () -. tm.since

let no_pencil _ _ = ()

(* The grid of [f] is walked pencil by pencil: the cells that differ only
   in the last (velocity) coordinate, in storage order, which is
   Grid.iter_cells' order.  A pencil's first block offset is computed from
   its coordinates, the rest step by [Field.cell_step], and a neighbour
   across direction [dir] is one [cell_step dir] away.  Under
   VMDG_BOUNDS_CHECK=1 every offset so derived is checked against the
   coordinates it stands for. *)
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
  let walk_pencil () =
    c.(last) <- 0;
    pencil ctx c;
    for k = 0 to vlast - 1 do
      vcenter.(k) <- vlo.(k) +. ((float_of_int c.(cdim + k) +. 0.5) *. dvx.(k))
    done;
    let foff0 = Field.unsafe_cell_offset f c in
    let ooff0 = Field.unsafe_cell_offset out c in
    for j = 0 to cells.(last) - 1 do
      c.(last) <- j;
      let foff = foff0 + (j * fstep_last) and ooff = ooff0 + (j * ostep_last) in
      if chk then begin
        Field.check_walked_offset f c ~dir:last ~by:0 foff;
        Field.check_walked_offset out c ~dir:last ~by:0 ooff
      end;
      vcenter.(vlast) <-
        vlo.(vlast) +. ((float_of_int j +. 0.5) *. dvx.(vlast));
      for i = 0 to Array.length dirs - 1 do
        let d = dirs.(i) in
        let dir = d.dir and ops = d.ops in
        let is_cfg = dir < cdim in
        let rdx = rdxs.(i) in
        let gof = 2 * ops.nface in
        mark tr tm;
        d.fill ctx vcenter alpha;
        if tr then tm.fill_s <- tm.fill_s +. lap tm;
        (* volume term *)
        mark tr tm;
        (match ops.vol with
        | Stream id ->
            (* vd = dir for configuration directions (Layout pairing) *)
            K.stream id ~wv:vcenter.(dir) ~dv:dvx.(dir) ~rdx2:rdx2s.(i) fd
              ~foff od ~ooff
        | Alpha op -> apply_t3 op ~scale:rdx2s.(i) alpha fd ~foff od ~ooff);
        (match d.volume with Some h -> h ctx fd ~foff od ~ooff | None -> ());
        if tr then tm.volume_s <- tm.volume_s +. lap tm;
        (* lower face of cell [c]: L = c - e_dir (possibly ghost), R = c;
           velocity directions use zero-flux domain boundaries *)
        if is_cfg || c.(dir) > 0 then begin
          mark tr tm;
          let a =
            match d.face_alpha with
            | None -> alpha
            | Some h ->
                h alpha falpha;
                falpha
          in
          let lam = face_speed d.speed vcenter a in
          let foff_l = foff - fstep.(i) in
          if chk then Field.check_walked_offset f c ~dir ~by:(-1) foff_l;
          face_flux ops ~rdx ~lam a fd ~foff_l ~foff_r:foff face;
          (* update the left cell unless it is a ghost *)
          if c.(dir) > 0 then begin
            let ooff_l = ooff - ostep.(i) in
            if chk then Field.check_walked_offset out c ~dir ~by:(-1) ooff_l;
            apply_t2 ops.lift_hi ~scale:(-1.0) face ~foff:gof od
              ~ooff:ooff_l;
            apply_t2 ops.lift_lo ~scale:1.0 face ~foff:gof od ~ooff;
            match d.face with
            | Some h -> h ctx fd ~foff_l ~foff_r:foff od ~ooff_l ~ooff_r:ooff
            | None -> ()
          end
          else
            apply_t2 ops.lift_lo ~scale:1.0 face ~foff:gof od ~ooff;
          if tr then tm.surface_s <- tm.surface_s +. lap tm
        end;
        (* upper boundary face (configuration directions only; ghost
           data): L = c (interior), R = ghost *)
        if is_cfg && c.(dir) = cells.(dir) - 1 then begin
          mark tr tm;
          let lam = face_speed d.speed vcenter alpha in
          let foff_r = foff + fstep.(i) in
          if chk then Field.check_walked_offset f c ~dir ~by:1 foff_r;
          face_flux ops ~rdx ~lam alpha fd ~foff_l:foff ~foff_r face;
          apply_t2 ops.lift_hi ~scale:(-1.0) face ~foff:gof od ~ooff;
          if tr then tm.surface_s <- tm.surface_s +. lap tm
        end;
        (* velocity-domain boundary faces *)
        match d.boundary with
        | Some h when not is_cfg ->
            mark tr tm;
            if c.(dir) = 0 then h ctx Tensors.Lo fd ~foff od ~ooff;
            if c.(dir) = cells.(dir) - 1 then h ctx Tensors.Hi fd ~foff od ~ooff;
            if tr then tm.surface_s <- tm.surface_s +. lap tm
        | _ -> ()
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
