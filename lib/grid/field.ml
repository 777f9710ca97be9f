(* DG coefficient fields: per-cell blocks of [ncomp] expansion coefficients
   stored contiguously over an extended (ghost-padded) grid.

   Each dimension carries its own ghost width.  The DG surface terms read
   one ghost layer per side across a face whose neighbour lies outside the
   domain (the paper's communication pattern), but only in configuration
   space: velocity-space boundaries are zero-flux, so no sweep ever reads a
   velocity ghost.  Phase-space fields ([create_phase]) therefore pad the
   configuration dimensions only; configuration-space fields ([create])
   pad every dimension.  Extended cells are addressed by coordinates in
   [-ghost.(d), cells.(d)+ghost.(d)) per dimension. *)

type bc =
  | Periodic  (* wrap around *)
  | Copy      (* zero-gradient: ghost := adjacent interior *)
  | Zero      (* ghost := 0 (open/absorbing boundary) *)

type t = {
  grid : Grid.t;
  ncomp : int;
  ghost : int array; (* ghost width per dimension *)
  ext : int array; (* extended cell counts *)
  stride : int array; (* strides in cells, last dim fastest *)
  origin : int; (* cell index of coordinate 0 in every dimension *)
  data : float array;
}

let make grid ~ncomp ghost =
  let ndim = Grid.ndim grid in
  let ext = Array.mapi (fun d n -> n + (2 * ghost.(d))) (Grid.cells grid) in
  let stride = Array.make ndim 1 in
  for d = ndim - 2 downto 0 do
    stride.(d) <- stride.(d + 1) * ext.(d + 1)
  done;
  let origin = ref 0 in
  Array.iteri (fun d g -> origin := !origin + (g * stride.(d))) ghost;
  let total = Array.fold_left ( * ) 1 ext in
  {
    grid;
    ncomp;
    ghost;
    ext;
    stride;
    origin = !origin;
    data = Array.make (total * ncomp) 0.0;
  }

let create ?(nghost = 1) grid ~ncomp =
  make grid ~ncomp (Array.make (Grid.ndim grid) nghost)

let create_phase ~cdim grid ~ncomp =
  let ndim = Grid.ndim grid in
  if cdim < 0 || cdim > ndim then
    invalid_arg
      (Printf.sprintf "Field.create_phase: cdim %d outside [0, %d]" cdim ndim);
  make grid ~ncomp (Array.init ndim (fun d -> if d < cdim then 1 else 0))

let grid f = f.grid
let ncomp f = f.ncomp
let ghost f d = f.ghost.(d)
let nghost f = Array.fold_left max 0 f.ghost
let data f = f.data

(* Offset (in floats) of the coefficient block of the cell with *interior*
   coordinates [c] (ghosts reachable with negative / >= cells coordinates). *)
let offset f (c : int array) =
  let idx = ref f.origin in
  for d = 0 to Grid.ndim f.grid - 1 do
    assert (c.(d) >= -f.ghost.(d) && c.(d) < f.ext.(d) - f.ghost.(d));
    idx := !idx + (c.(d) * f.stride.(d))
  done;
  !idx * f.ncomp

let get f c k = f.data.(offset f c + k)
let set f c k v = f.data.(offset f c + k) <- v

(* --- Zero-copy cell addressing ----------------------------------------- *)

(* The generated kernels read and write [data] with unchecked pointers at
   literal in-block positions relative to a cell's base offset, so the
   offset arithmetic is where bounds are established: once per pencil of
   the sweep ([unsafe_cell_offset]), then stepped by [cell_step].
   VMDG_BOUNDS_CHECK=1 (read once at module init) re-arms full
   per-coordinate checking of every offset the sweep uses, for debugging
   the zero-copy path. *)
let bounds_check =
  match Sys.getenv_opt "VMDG_BOUNDS_CHECK" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | _ -> false

(* Validated offset of the cell at the first [ndim] coordinates of [c],
   shifted by [by] in dimension [dir] ([dir] < 0: no shift). *)
let checked_offset ~who f (c : int array) ~dir ~by =
  let idx = ref f.origin in
  for d = 0 to Grid.ndim f.grid - 1 do
    let cd = if d = dir then c.(d) + by else c.(d) in
    if cd < -f.ghost.(d) || cd >= f.ext.(d) - f.ghost.(d) then
      invalid_arg
        (Printf.sprintf "%s: coordinate %d out of [%d, %d) in dim %d" who cd
           (-f.ghost.(d))
           (f.ext.(d) - f.ghost.(d))
           d);
    idx := !idx + (cd * f.stride.(d))
  done;
  !idx * f.ncomp

let checked_cell_offset f (c : int array) =
  if Array.length c <> Grid.ndim f.grid then
    invalid_arg "Field.checked_cell_offset: coordinate rank mismatch";
  checked_offset ~who:"Field.checked_cell_offset" f c ~dir:(-1) ~by:0

let unsafe_cell_offset f (c : int array) =
  if bounds_check then checked_cell_offset f c
  else begin
    let idx = ref f.origin in
    for d = 0 to Grid.ndim f.grid - 1 do
      idx := !idx + (Array.unsafe_get c d * Array.unsafe_get f.stride d)
    done;
    !idx * f.ncomp
  end

let unsafe_leading_offset f (c : int array) =
  if bounds_check then begin
    if Array.length c < Grid.ndim f.grid then
      invalid_arg "Field.unsafe_leading_offset: fewer coordinates than dims";
    checked_offset ~who:"Field.unsafe_leading_offset" f c ~dir:(-1) ~by:0
  end
  else begin
    let idx = ref f.origin in
    for d = 0 to Grid.ndim f.grid - 1 do
      idx := !idx + (Array.unsafe_get c d * Array.unsafe_get f.stride d)
    done;
    !idx * f.ncomp
  end

let cell_step f d = f.stride.(d) * f.ncomp

let check_walked_offset f (c : int array) ~dir ~by off =
  if Array.length c <> Grid.ndim f.grid then
    invalid_arg "Field.check_walked_offset: coordinate rank mismatch";
  let want = checked_offset ~who:"Field.check_walked_offset" f c ~dir ~by in
  if off <> want then
    invalid_arg
      (Printf.sprintf
         "Field.check_walked_offset: offset %d, but the cell's block is at %d"
         off want)

(* Read/write the whole coefficient block of a cell. *)
let read_block f c (out : float array) =
  Array.blit f.data (offset f c) out 0 f.ncomp

let write_block f c (src : float array) =
  Array.blit src 0 f.data (offset f c) f.ncomp

let accumulate_block f c ?(scale = 1.0) (src : float array) =
  let base = offset f c in
  for k = 0 to f.ncomp - 1 do
    f.data.(base + k) <- f.data.(base + k) +. (scale *. src.(k))
  done

let fill f v = Array.fill f.data 0 (Array.length f.data) v

let copy_into ~src ~dst =
  assert (Array.length src.data = Array.length dst.data);
  Array.blit src.data 0 dst.data 0 (Array.length src.data)

let clone f = { f with data = Array.copy f.data }

(* dst := dst + s * src over the entire extended array (ghosts included;
   cheap and harmless since ghosts get refreshed before use). *)
let axpy ~s ~src ~dst =
  assert (Array.length src.data = Array.length dst.data);
  let a = src.data and b = dst.data in
  for i = 0 to Array.length a - 1 do
    b.(i) <- b.(i) +. (s *. a.(i))
  done

let scale f s =
  let a = f.data in
  for i = 0 to Array.length a - 1 do
    a.(i) <- a.(i) *. s
  done

(* --- Ghost-cell synchronization ---------------------------------------- *)

(* Refresh the ghost layers of dimension [d] by contiguous slab copies.  For
   a fixed tuple of outer coordinates (dims < d, extended) the cells with a
   given coordinate in [d] and any extended coordinates in dims > d are
   [stride.(d)] consecutive cells, so each ghost layer of each outer tuple
   is one blit (or fill).  Corners are handled because dimensions are
   processed in order and each slab spans the ghost regions of the other
   dimensions. *)
let apply_bc_dim f d (bc_lo : bc) (bc_hi : bc) =
  let nc = (Grid.cells f.grid).(d) and g = f.ghost.(d) in
  let slab = f.stride.(d) * f.ncomp in
  let nouter = ref 1 in
  for k = 0 to d - 1 do
    nouter := !nouter * f.ext.(k)
  done;
  (* float offset of extended index [e] in dim [d] under outer tuple [o] *)
  let at o e = ((o * f.ext.(d)) + e) * slab in
  let fix o ~dst bc ~src =
    match bc with
    | Periodic | Copy -> Array.blit f.data (at o src) f.data (at o dst) slab
    | Zero -> Array.fill f.data (at o dst) slab 0.0
  in
  for o = 0 to !nouter - 1 do
    for layer = 1 to g do
      (* coordinate -layer from nc - layer (periodic) or 0 (copy) *)
      fix o ~dst:(g - layer) bc_lo
        ~src:(g + if bc_lo = Periodic then nc - layer else 0);
      (* coordinate nc - 1 + layer from layer - 1 (periodic) or nc - 1 *)
      fix o ~dst:(g + nc - 1 + layer) bc_hi
        ~src:(g + if bc_hi = Periodic then layer - 1 else nc - 1)
    done
  done

(* Refresh all ghost layers given per-dimension (lower, upper) BCs;
   dimensions without ghosts are skipped. *)
let sync_ghosts f (bcs : (bc * bc) array) =
  assert (Array.length bcs = Grid.ndim f.grid);
  Array.iteri
    (fun d (lo, hi) -> if f.ghost.(d) > 0 then apply_bc_dim f d lo hi)
    bcs

(* --- Layout-crossing copies -------------------------------------------- *)

(* dst := src on every cell [dst] stores, interior and ghosts, one
   contiguous row of the last dimension at a time. *)
let copy_stored ~src ~dst =
  let ndim = Grid.ndim dst.grid in
  let cells = Grid.cells dst.grid in
  if
    Grid.cells src.grid <> cells
    || src.ncomp <> dst.ncomp
    || Array.exists2 (fun gs gd -> gs < gd) src.ghost dst.ghost
  then invalid_arg "Field.copy_stored: src does not store every cell of dst";
  let last = ndim - 1 in
  let c = Array.make ndim 0 in
  let row = dst.ext.(last) * dst.ncomp in
  let rec go d =
    if d = last then begin
      c.(last) <- -dst.ghost.(last);
      Array.blit src.data (offset src c) dst.data (offset dst c) row
    end
    else
      for k = -dst.ghost.(d) to cells.(d) + dst.ghost.(d) - 1 do
        c.(d) <- k;
        go (d + 1)
      done
  in
  go 0

(* Feed [k] the storage [f] would have with [nghost] ghost layers in every
   dimension, in storage order, with +0 wherever [f] stores no cell. *)
let iter_padded f ~nghost k =
  let ndim = Grid.ndim f.grid in
  let cells = Grid.cells f.grid in
  if Array.exists (fun g -> g > nghost) f.ghost then
    invalid_arg "Field.iter_padded: field is wider than the padding";
  (* floats in one padded sub-box spanning dims d.. *)
  let sub = Array.make (ndim + 1) f.ncomp in
  for d = ndim - 1 downto 0 do
    sub.(d) <- sub.(d + 1) * (cells.(d) + (2 * nghost))
  done;
  let rec go d base =
    if d = ndim then
      for i = base * f.ncomp to ((base + 1) * f.ncomp) - 1 do
        k f.data.(i)
      done
    else
      for cd = -nghost to cells.(d) + nghost - 1 do
        if cd < -f.ghost.(d) || cd >= cells.(d) + f.ghost.(d) then
          for _ = 1 to sub.(d + 1) do
            k 0.0
          done
        else go (d + 1) (base + ((cd + f.ghost.(d)) * f.stride.(d)))
      done
  in
  go 0 0

(* L2 norm over interior cells: sqrt(sum_cells |coeffs|^2 * cellvol / 2^ndim).
   With orthonormal reference-cell bases this equals the physical L2 norm. *)
let l2_norm f =
  let jac =
    Grid.cell_volume f.grid
    /. (2.0 ** float_of_int (Grid.ndim f.grid))
  in
  let acc = ref 0.0 in
  Grid.iter_cells f.grid (fun _ c ->
      let base = offset f c in
      for k = 0 to f.ncomp - 1 do
        let v = f.data.(base + k) in
        acc := !acc +. (v *. v)
      done);
  sqrt (!acc *. jac)
