(* Grid and field-storage tests: index round-trips, geometry, ghost-cell
   synchronization under each boundary condition, field algebra. *)

module Grid = Dg_grid.Grid
module Field = Dg_grid.Field

let check_close = Alcotest.(check (float 1e-12))

let test_index_roundtrip () =
  let g = Grid.make ~cells:[| 3; 4; 5 |] ~lower:[| 0.; 0.; 0. |] ~upper:[| 1.; 1.; 1. |] in
  let c = Array.make 3 0 in
  for idx = 0 to Grid.num_cells g - 1 do
    Grid.coords_of_linear g idx c;
    Alcotest.(check int) "roundtrip" idx (Grid.linear_index g c)
  done

let qcheck_roundtrip =
  QCheck.Test.make ~name:"coords->linear->coords" ~count:100
    (QCheck.triple (QCheck.int_range 1 6) (QCheck.int_range 1 6) (QCheck.int_range 1 6))
    (fun (a, b, c) ->
      let g =
        Grid.make ~cells:[| a; b; c |] ~lower:[| 0.; 0.; 0. |] ~upper:[| 1.; 1.; 1. |]
      in
      let ok = ref true in
      Grid.iter_cells g (fun idx coords ->
          let out = Array.make 3 0 in
          Grid.coords_of_linear g (Grid.linear_index g coords) out;
          if out <> coords || Grid.linear_index g coords <> idx then ok := false);
      !ok)

let test_geometry () =
  let g = Grid.make ~cells:[| 4 |] ~lower:[| -2.0 |] ~upper:[| 2.0 |] in
  check_close "dx" 1.0 (Grid.dx g).(0);
  let ctr = Array.make 1 0.0 in
  Grid.cell_center g [| 0 |] ctr;
  check_close "center 0" (-1.5) ctr.(0);
  Grid.cell_center g [| 3 |] ctr;
  check_close "center 3" 1.5 ctr.(0);
  let phys = Array.make 1 0.0 in
  Grid.to_physical g [| 1 |] [| -1.0 |] phys;
  check_close "cell lower edge" (-1.0) phys.(0);
  Grid.to_physical g [| 1 |] [| 1.0 |] phys;
  check_close "cell upper edge" 0.0 phys.(0);
  check_close "volume" 1.0 (Grid.cell_volume g)

let test_prefix_suffix_product () =
  let g =
    Grid.make ~cells:[| 2; 3; 4; 5 |] ~lower:[| 0.; 1.; 2.; 3. |]
      ~upper:[| 1.; 2.; 3.; 4. |]
  in
  let c = Grid.prefix g 2 and v = Grid.suffix g 2 in
  Alcotest.(check int) "prefix cells" 6 (Grid.num_cells c);
  Alcotest.(check int) "suffix cells" 20 (Grid.num_cells v);
  let p = Grid.product c v in
  Alcotest.(check int) "product cells" (Grid.num_cells g) (Grid.num_cells p);
  check_close "product lower" 2.0 (Grid.lower p).(2)

let test_ghost_periodic () =
  let g = Grid.make ~cells:[| 4 |] ~lower:[| 0. |] ~upper:[| 1. |] in
  let f = Field.create g ~ncomp:2 in
  Grid.iter_cells g (fun idx c ->
      Field.set f c 0 (float_of_int idx);
      Field.set f c 1 (10.0 +. float_of_int idx));
  Field.sync_ghosts f [| (Field.Periodic, Field.Periodic) |];
  check_close "lower ghost" 3.0 (Field.get f [| -1 |] 0);
  check_close "upper ghost" 0.0 (Field.get f [| 4 |] 0);
  check_close "upper ghost comp1" 10.0 (Field.get f [| 4 |] 1)

let test_ghost_copy_zero () =
  let g = Grid.make ~cells:[| 3 |] ~lower:[| 0. |] ~upper:[| 1. |] in
  let f = Field.create g ~ncomp:1 in
  Grid.iter_cells g (fun idx c -> Field.set f c 0 (float_of_int (idx + 1)));
  Field.sync_ghosts f [| (Field.Copy, Field.Zero) |];
  check_close "copy lower" 1.0 (Field.get f [| -1 |] 0);
  check_close "zero upper" 0.0 (Field.get f [| 3 |] 0)

(* Corner ghosts must be consistent for multi-dimensional periodic sync
   (dimension-by-dimension passes must fill corners too). *)
let test_ghost_corners_2d () =
  let g = Grid.make ~cells:[| 3; 3 |] ~lower:[| 0.; 0. |] ~upper:[| 1.; 1. |] in
  let f = Field.create g ~ncomp:1 in
  Grid.iter_cells g (fun _ c ->
      Field.set f c 0 (float_of_int ((10 * c.(0)) + c.(1))));
  Field.sync_ghosts f (Array.make 2 (Field.Periodic, Field.Periodic));
  (* ghost at (-1,-1) must equal interior (2,2) *)
  check_close "corner ghost" 22.0 (Field.get f [| -1; -1 |] 0);
  check_close "corner ghost hi" 0.0 (Field.get f [| 3; 3 |] 0);
  check_close "edge ghost" 2.0 (Field.get f [| -1; 2 |] 0 -. 20.0)

(* The per-cell walk sync_ghosts used before it copied whole slabs, kept
   as the oracle: for every extended coordinate outside dimension [d], fix
   each ghost cell of [d] from its source cell one block at a time. *)
let walk_sync f (bcs : (Field.bc * Field.bc) array) =
  let cells = Grid.cells (Field.grid f) in
  let ndim = Array.length cells and ncomp = Field.ncomp f in
  let data = Field.data f in
  Array.iteri
    (fun d (lo, hi) ->
      let g = Field.ghost f d and nc = cells.(d) in
      let c = Array.make ndim 0 in
      let fix (bc : Field.bc) ~ghost ~from =
        c.(d) <- ghost;
        let dst = Field.offset f c in
        match bc with
        | Field.Zero -> Array.fill data dst ncomp 0.0
        | Field.Periodic | Field.Copy ->
            c.(d) <- from;
            Array.blit data (Field.offset f c) data dst ncomp
      in
      let rec walk dim =
        if dim = ndim then
          for layer = 1 to g do
            fix lo ~ghost:(-layer)
              ~from:(if lo = Field.Periodic then nc - layer else 0);
            fix hi ~ghost:(nc - 1 + layer)
              ~from:(if hi = Field.Periodic then layer - 1 else nc - 1)
          done
        else if dim = d then walk (dim + 1)
        else
          for k = -Field.ghost f dim to cells.(dim) - 1 + Field.ghost f dim do
            c.(dim) <- k;
            walk (dim + 1)
          done
      in
      walk 0)
    bcs

(* [k c] on every coordinate [f] stores, interior and ghosts. *)
let iter_stored f k =
  let cells = Grid.cells (Field.grid f) in
  let ndim = Array.length cells in
  let c = Array.make ndim 0 in
  let rec go d =
    if d = ndim then k c
    else
      for x = -Field.ghost f d to cells.(d) + Field.ghost f d - 1 do
        c.(d) <- x;
        go (d + 1)
      done
  in
  go 0

let bits_equal a b =
  Array.for_all2
    (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    a b

let all_bcs =
  List.concat_map
    (fun lo -> List.map (fun hi -> (lo, hi)) Field.[ Periodic; Copy; Zero ])
    Field.[ Periodic; Copy; Zero ]

(* On random 1-5 dimensional grids, under every (lower, upper) pair of
   conditions in every dimension and under random per-dimension mixes:
   a field padded only in its leading dimensions holds, after sync, the
   interior and ghost values of a uniformly padded field with the same
   interior; and the slab-copy sync equals the per-cell walk bitwise, for
   narrow, one-layer and two-layer padding. *)
let test_sync_layouts () =
  let rng = Random.State.make [| 2024 |] in
  for _ = 1 to 40 do
    let ndim = 1 + Random.State.int rng 5 in
    let cells = Array.init ndim (fun _ -> 1 + Random.State.int rng 3) in
    let grid =
      Grid.make ~cells ~lower:(Array.make ndim 0.0) ~upper:(Array.make ndim 1.0)
    in
    let ncomp = 1 + Random.State.int rng 3 in
    let lead = Random.State.int rng (ndim + 1) in
    let mixes =
      List.map (fun bc -> Array.make ndim bc) all_bcs
      @ List.init 4 (fun _ ->
            Array.init ndim (fun _ ->
                List.nth all_bcs (Random.State.int rng (List.length all_bcs))))
    in
    List.iter
      (fun bcs ->
        let where =
          Printf.sprintf "cells %s, %d padded"
            (String.concat "x" (Array.to_list (Array.map string_of_int cells)))
            lead
        in
        let uniform = Field.create grid ~ncomp in
        let d = Field.data uniform in
        Array.iteri (fun i _ -> d.(i) <- Random.State.float rng 2.0 -. 1.0) d;
        let narrow = Field.create_phase ~cdim:lead grid ~ncomp in
        Field.copy_stored ~src:uniform ~dst:narrow;
        let wide = Field.create ~nghost:2 grid ~ncomp in
        let d2 = Field.data wide in
        Array.iteri (fun i _ -> d2.(i) <- Random.State.float rng 2.0 -. 1.0) d2;
        (* oracle runs on copies taken before the sync under test *)
        let check_walk name f =
          let o = Field.clone f in
          walk_sync o bcs;
          Field.sync_ghosts f bcs;
          if not (bits_equal (Field.data o) (Field.data f)) then
            Alcotest.failf "%s: slab sync <> per-cell walk (%s)" name where
        in
        check_walk "narrow" narrow;
        check_walk "uniform" uniform;
        check_walk "two-layer" wide;
        let a = Array.make ncomp 0.0 and b = Array.make ncomp 0.0 in
        iter_stored narrow (fun c ->
            Field.read_block narrow c a;
            Field.read_block uniform c b;
            if not (bits_equal a b) then
              Alcotest.failf "narrow <> uniform at [|%s|] (%s)"
                (String.concat ";" (Array.to_list (Array.map string_of_int c)))
                where))
      mixes
  done

let test_field_algebra () =
  let g = Grid.make ~cells:[| 2; 2 |] ~lower:[| 0.; 0. |] ~upper:[| 1.; 1. |] in
  let a = Field.create g ~ncomp:3 and b = Field.create g ~ncomp:3 in
  Field.fill a 2.0;
  Field.fill b 1.0;
  Field.axpy ~s:0.5 ~src:a ~dst:b;
  check_close "axpy" 2.0 (Field.get b [| 0; 0 |] 1);
  Field.scale b 2.0;
  check_close "scale" 4.0 (Field.get b [| 1; 1 |] 2);
  let c = Field.clone b in
  Field.fill b 0.0;
  check_close "clone is independent" 4.0 (Field.get c [| 0; 1 |] 0)

let test_l2_norm () =
  let g = Grid.make ~cells:[| 2 |] ~lower:[| 0. |] ~upper:[| 2. |] in
  let f = Field.create g ~ncomp:1 in
  Field.fill f 0.0;
  Grid.iter_cells g (fun _ c -> Field.set f c 0 3.0);
  (* f = 3 P~_0 = 3/sqrt(2) pointwise; physical L2 norm over [0,2] is
     sqrt(int (9/2) dx) = 3 *)
  check_close "l2" 3.0 (Field.l2_norm f)

let test_block_ops () =
  let g = Grid.make ~cells:[| 2 |] ~lower:[| 0. |] ~upper:[| 1. |] in
  let f = Field.create g ~ncomp:3 in
  Field.write_block f [| 1 |] [| 1.0; 2.0; 3.0 |];
  let out = Array.make 3 0.0 in
  Field.read_block f [| 1 |] out;
  Alcotest.(check (array (float 0.0))) "rw block" [| 1.0; 2.0; 3.0 |] out;
  Field.accumulate_block f [| 1 |] ~scale:2.0 [| 1.0; 1.0; 1.0 |];
  Field.read_block f [| 1 |] out;
  Alcotest.(check (array (float 0.0))) "accumulate" [| 3.0; 4.0; 5.0 |] out

(* The zero-copy addressing trio: unsafe_cell_offset must agree with the
   checked offset on every interior AND ghost cell, and the always-checked
   variant must reject out-of-range coordinates loudly. *)
let test_cell_offsets () =
  let g = Grid.make ~cells:[| 3; 4 |] ~lower:[| 0.; 0. |] ~upper:[| 1.; 1. |] in
  let f = Field.create g ~ncomp:5 in
  for i = -1 to 3 do
    for j = -1 to 4 do
      let c = [| i; j |] in
      let expect = Field.offset f c in
      Alcotest.(check int)
        (Printf.sprintf "unsafe offset (%d,%d)" i j)
        expect
        (Field.unsafe_cell_offset f c);
      Alcotest.(check int)
        (Printf.sprintf "checked offset (%d,%d)" i j)
        expect
        (Field.checked_cell_offset f c)
    done
  done;
  List.iter
    (fun bad ->
      match Field.checked_cell_offset f bad with
      | exception Invalid_argument _ -> ()
      | off ->
          Alcotest.failf "checked_cell_offset [|%s|] = %d, expected raise"
            (String.concat ";" (Array.to_list (Array.map string_of_int bad)))
            off)
    [ [| -2; 0 |]; [| 0; 5 |]; [| 4; 0 |]; [| 0 |] ]

(* A phase field has ghosts in its configuration dimensions only: its
   offsets agree on every stored cell, and the checked offset refuses a
   velocity ghost coordinate (which the unchecked one would silently map
   into a neighbouring block). *)
let test_phase_offsets () =
  let g =
    Grid.make ~cells:[| 2; 3; 4 |] ~lower:[| 0.; 0.; -1. |]
      ~upper:[| 1.; 1.; 1. |]
  in
  let f = Field.create_phase ~cdim:2 g ~ncomp:3 in
  Alcotest.(check (list int)) "ghost widths" [ 1; 1; 0 ]
    (List.init 3 (Field.ghost f));
  Alcotest.(check int) "storage" (4 * 5 * 4 * 3) (Array.length (Field.data f));
  iter_stored f (fun c ->
      let expect = Field.offset f c in
      Alcotest.(check int) "unsafe" expect (Field.unsafe_cell_offset f c);
      Alcotest.(check int) "checked" expect (Field.checked_cell_offset f c));
  List.iter
    (fun bad ->
      match Field.checked_cell_offset f bad with
      | exception Invalid_argument _ -> ()
      | off -> Alcotest.failf "velocity ghost accepted at offset %d" off)
    [ [| 0; 0; -1 |]; [| 1; 2; 4 |]; [| -1; -1; -1 |] ];
  match Field.create_phase ~cdim:4 g ~ncomp:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cdim beyond the grid accepted"

let () =
  Alcotest.run "dg_grid"
    [
      ( "grid",
        [
          Alcotest.test_case "index roundtrip" `Quick test_index_roundtrip;
          Alcotest.test_case "geometry" `Quick test_geometry;
          Alcotest.test_case "prefix/suffix/product" `Quick test_prefix_suffix_product;
          QCheck_alcotest.to_alcotest qcheck_roundtrip;
        ] );
      ( "ghosts",
        [
          Alcotest.test_case "periodic" `Quick test_ghost_periodic;
          Alcotest.test_case "copy/zero" `Quick test_ghost_copy_zero;
          Alcotest.test_case "2D corners" `Quick test_ghost_corners_2d;
          Alcotest.test_case "narrow == uniform, slabs == walk" `Quick
            test_sync_layouts;
        ] );
      ( "fields",
        [
          Alcotest.test_case "algebra" `Quick test_field_algebra;
          Alcotest.test_case "l2 norm" `Quick test_l2_norm;
          Alcotest.test_case "block ops" `Quick test_block_ops;
          Alcotest.test_case "cell offsets (zero-copy trio)" `Quick
            test_cell_offsets;
          Alcotest.test_case "phase field offsets" `Quick test_phase_offsets;
        ] );
    ]
