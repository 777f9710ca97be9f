(* Configuration-space block decomposition with halo (ghost-cell) exchange —
   the distributed layer of the paper's two-level decomposition.  Only
   configuration dimensions are split (velocity space is kept whole per
   block and reduced locally, so moments need no inter-block reduction).

   Each block owns a phase-space sub-grid with one ghost layer in each
   configuration dimension (none in velocity, which is never split); exchange
   copies boundary slabs between neighbouring blocks (periodic).  On a real
   cluster these copies are the MPI messages; here they quantify the
   communication volume of the scaling model, and the implementation is
   verified against the monolithic ghost sync. *)

module Grid = Dg_grid.Grid
module Field = Dg_grid.Field

type block = {
  id : int;
  bcoords : int array; (* block coordinates in the block grid *)
  offset : int array; (* global cell offset of this block (config dims) *)
  local_grid : Grid.t; (* phase-space grid of this block *)
  field : Field.t;
}

type t = {
  global : Grid.t; (* global phase grid *)
  cdim : int;
  blocks_per_dim : int array; (* length cdim *)
  blocks : block array;
  ncomp : int;
}

let make ~(global : Grid.t) ~cdim ~(blocks_per_dim : int array) ~ncomp =
  assert (Array.length blocks_per_dim = cdim);
  let cells = Grid.cells global in
  Array.iteri
    (fun d nb ->
      if cells.(d) mod nb <> 0 then
        invalid_arg "Decomp.make: blocks must evenly divide cells")
    blocks_per_dim;
  let pdim = Grid.ndim global in
  let nblocks = Array.fold_left ( * ) 1 blocks_per_dim in
  let blocks =
    Array.init nblocks (fun id ->
        (* block coordinates, last dim fastest *)
        let bcoords = Array.make cdim 0 in
        let rest = ref id in
        for d = cdim - 1 downto 0 do
          bcoords.(d) <- !rest mod blocks_per_dim.(d);
          rest := !rest / blocks_per_dim.(d)
        done;
        let local_cells =
          Array.init pdim (fun d ->
              if d < cdim then cells.(d) / blocks_per_dim.(d) else cells.(d))
        in
        let offset =
          Array.init cdim (fun d -> bcoords.(d) * local_cells.(d))
        in
        let lower =
          Array.init pdim (fun d ->
              if d < cdim then
                (Grid.lower global).(d)
                +. (float_of_int offset.(d) *. (Grid.dx global).(d))
              else (Grid.lower global).(d))
        in
        let upper =
          Array.init pdim (fun d ->
              if d < cdim then
                lower.(d) +. (float_of_int local_cells.(d) *. (Grid.dx global).(d))
              else (Grid.upper global).(d))
        in
        let local_grid = Grid.make ~cells:local_cells ~lower ~upper in
        {
          id;
          bcoords;
          offset;
          local_grid;
          field = Field.create_phase ~cdim local_grid ~ncomp;
        })
      in
  { global; cdim; blocks_per_dim; blocks; ncomp }

let block_id t (bcoords : int array) =
  let id = ref 0 in
  for d = 0 to t.cdim - 1 do
    id := (!id * t.blocks_per_dim.(d)) + bcoords.(d)
  done;
  !id

(* Scatter a global field into the block-local fields. *)
let scatter t ~(src : Field.t) =
  let pdim = Grid.ndim t.global in
  let gc = Array.make pdim 0 in
  Array.iter
    (fun b ->
      Grid.iter_cells b.local_grid (fun _ lc ->
          for d = 0 to pdim - 1 do
            gc.(d) <- (if d < t.cdim then lc.(d) + b.offset.(d) else lc.(d))
          done;
          let goff = Field.offset src gc and loff = Field.offset b.field lc in
          Array.blit (Field.data src) goff (Field.data b.field) loff t.ncomp))
    t.blocks

(* Gather block interiors back into a global field. *)
let gather t ~(dst : Field.t) =
  let pdim = Grid.ndim t.global in
  let gc = Array.make pdim 0 in
  Array.iter
    (fun b ->
      Grid.iter_cells b.local_grid (fun _ lc ->
          for d = 0 to pdim - 1 do
            gc.(d) <- (if d < t.cdim then lc.(d) + b.offset.(d) else lc.(d))
          done;
          let goff = Field.offset dst gc and loff = Field.offset b.field lc in
          Array.blit (Field.data b.field) loff (Field.data dst) goff t.ncomp))
    t.blocks

(* Exchange halos between neighbouring blocks, periodic in every split
   dimension.  Returns the number of floats moved (the "message volume"). *)
let exchange_halos t =
  let pdim = Grid.ndim t.global in
  let moved = ref 0 in
  let gcl = Array.make pdim 0 and gcr = Array.make pdim 0 in
  for d = 0 to t.cdim - 1 do
    Array.iter
      (fun b ->
        let nb = Array.copy b.bcoords in
        nb.(d) <- (b.bcoords.(d) + 1) mod t.blocks_per_dim.(d);
        let right = t.blocks.(block_id t nb) in
        let ncells_d = (Grid.cells b.local_grid).(d) in
        (* iterate over the face cells of b's upper side in dim d *)
        Grid.iter_cells b.local_grid (fun _ lc ->
            if lc.(d) = ncells_d - 1 then begin
              (* b's last layer -> right block's lower ghost *)
              Array.blit lc 0 gcl 0 pdim;
              Array.blit lc 0 gcr 0 pdim;
              gcr.(d) <- -1;
              let src = Field.offset b.field gcl in
              let dst = Field.offset right.field gcr in
              Array.blit (Field.data b.field) src (Field.data right.field) dst
                t.ncomp;
              moved := !moved + t.ncomp;
              (* right block's first layer -> b's upper ghost *)
              gcr.(d) <- 0;
              gcl.(d) <- ncells_d;
              let src = Field.offset right.field gcr in
              let dst = Field.offset b.field gcl in
              Array.blit (Field.data right.field) src (Field.data b.field) dst
                t.ncomp;
              moved := !moved + t.ncomp
            end))
      t.blocks
  done;
  !moved
