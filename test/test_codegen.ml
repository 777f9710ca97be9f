(* The generated unrolled C kernels must agree with the interpreted sparse
   tensors (same entries, different execution strategy) for every
   direction the registry holds, the registry must hold every direction of
   every standard configuration, and the emitted source must be
   well-formed also for layouts the registry does not build.
   lib/genkernels is built from the emitter at build time, so these checks
   on the compiled registry are what guard the emitter; test_dispatch pins
   its results bit for bit. *)

module Layout = Dg_kernels.Layout
module Modal = Dg_basis.Modal
module Grid = Dg_grid.Grid
module Tensors = Dg_kernels.Tensors
module Sparse = Dg_kernels.Sparse
module Flux = Dg_kernels.Flux
module Codegen = Dg_codegen.Codegen
module Gen = Dg_genkernels.Kernels

let layout ~cdim ~vdim ~family ~p =
  let pdim = cdim + vdim in
  Layout.make ~cdim ~vdim ~family ~poly_order:p
    ~grid:
      (Grid.make ~cells:(Array.make pdim 2)
         ~lower:(Array.make pdim (-1.0))
         ~upper:(Array.make pdim 1.0))

let check_arrays msg a b =
  Array.iteri
    (fun i v ->
      if not (Dg_util.Float_cmp.close ~rtol:1e-13 ~atol:1e-13 v b.(i)) then
        Alcotest.failf "%s [%d]: %.17g <> %.17g" msg i v b.(i))
    a

let bundle ~cdim ~vdim ~family ~p ~dir =
  match
    Gen.find ~family:(Modal.family_name family) ~poly_order:p ~cdim ~vdim ~dir
  with
  | Some b -> b
  | None ->
      Alcotest.failf "no bundle for %s p=%d %dx%dv dir %d"
        (Modal.family_name family) p cdim vdim dir

(* Generated streaming volume kernel vs interpreted tensor with the
   streaming flux expansion. *)
let check_streaming ~cdim ~vdim ~family ~p ~dir =
  let lay = layout ~cdim ~vdim ~family ~p in
  let np = Layout.num_basis lay in
  let support = Tensors.streaming_support lay ~dir in
  let vol = Tensors.volume lay.Layout.basis ~support ~dir in
  let b = bundle ~cdim ~vdim ~family ~p ~dir in
  let gen =
    match b.Gen.vol with
    | Gen.Stream id -> id
    | Gen.Alpha _ -> Alcotest.failf "config dir %d bundle lacks Stream" dir
  in
  let rng = Random.State.make [| 17 |] in
  for _ = 1 to 10 do
    let f = Array.init np (fun _ -> Random.State.float rng 2.0 -. 1.0) in
    let wv = Random.State.float rng 4.0 -. 2.0 in
    let dv = 0.1 +. Random.State.float rng 1.0 in
    let rdx2 = 2.0 /. (0.1 +. Random.State.float rng 1.0) in
    let alpha = Array.make np 0.0 in
    (* config dir [dir] streams with velocity dim [dir] *)
    let vcenter = Array.init vdim (fun k -> if k = dir then wv else 0.0) in
    Flux.streaming_alpha (Flux.make_stream_ctx lay ~dir ~dv) ~vcenter alpha;
    let out_ref = Array.make np 0.0 and out_gen = Array.make np 0.0 in
    Sparse.apply_t3 vol ~scale:rdx2 alpha f out_ref;
    Gen.stream gen ~wv ~dv ~rdx2 f ~foff:0 out_gen ~ooff:0;
    check_arrays "streaming kernel" out_gen out_ref
  done

let check_accel ~cdim ~vdim ~family ~p ~dir =
  let lay = layout ~cdim ~vdim ~family ~p in
  let np = Layout.num_basis lay in
  let support = Tensors.acceleration_support lay ~vdir:dir in
  let vol = Tensors.volume lay.Layout.basis ~support ~dir in
  let gen =
    match (bundle ~cdim ~vdim ~family ~p ~dir).Gen.vol with
    | Gen.Alpha id -> id
    | Gen.Stream _ -> Alcotest.failf "velocity dir %d has a Stream kernel" dir
  in
  let rng = Random.State.make [| 23 |] in
  for _ = 1 to 10 do
    let f = Array.init np (fun _ -> Random.State.float rng 2.0 -. 1.0) in
    let alpha = Array.init np (fun _ -> Random.State.float rng 2.0 -. 1.0) in
    let scale = Random.State.float rng 3.0 in
    let out_ref = Array.make np 0.0 and out_gen = Array.make np 0.0 in
    Sparse.apply_t3 vol ~scale alpha f out_ref;
    Gen.t3 gen ~scale alpha f ~foff:0 out_gen ~ooff:0;
    check_arrays "accel kernel" out_gen out_ref
  done

(* One direction's five face kernels vs interpreted, including non-zero
   offsets. *)
let check_faces ~cdim ~vdim ~family ~p ~dir =
  let lay = layout ~cdim ~vdim ~family ~p in
  let np = Layout.num_basis lay in
  let fc = (Tensors.make_dir lay ~dir).Tensors.face in
  let b = bundle ~cdim ~vdim ~family ~p ~dir in
  let rng = Random.State.make [| 31 |] in
  let foff = np and ooff = 2 * np in
  let f = Array.init (4 * np) (fun _ -> Random.State.float rng 2.0 -. 1.0) in
  let alpha = Array.init np (fun _ -> Random.State.float rng 2.0 -. 1.0) in
  let out () = Array.make (4 * np) 0.0 in
  let out_ref = out () and out_gen = out () in
  Sparse.apply_t3_off fc.Tensors.triple ~scale:0.7 alpha f ~foff out_ref ~ooff;
  Gen.t3 b.Gen.face ~scale:0.7 alpha f ~foff out_gen ~ooff;
  check_arrays "face" out_gen out_ref;
  List.iter
    (fun (name, gen, interp) ->
      let out_ref = out () and out_gen = out () in
      Sparse.apply_t2_off interp ~scale:(-1.3) f ~foff out_ref ~ooff;
      Gen.t2 gen ~scale:(-1.3) f ~foff out_gen ~ooff;
      check_arrays name out_gen out_ref)
    [
      ("restrict_lo", b.Gen.restrict_lo, fc.Tensors.restrict_lo);
      ("restrict_hi", b.Gen.restrict_hi, fc.Tensors.restrict_hi);
      ("lift_lo", b.Gen.lift_lo, fc.Tensors.lift_lo);
      ("lift_hi", b.Gen.lift_hi, fc.Tensors.lift_hi);
    ]

(* Run [check] on every direction of every standard configuration that
   [select] admits ("registry covers advertised configs" pins that the
   registry holds them all). *)
let for_standard_dirs ~select check =
  List.iter
    (fun (family, p, cdim, vdim) ->
      for dir = 0 to cdim + vdim - 1 do
        if select ~cdim dir then check ~cdim ~vdim ~family ~p ~dir
      done)
    Codegen.standard_configs

let test_generated_streaming () =
  for_standard_dirs ~select:(fun ~cdim dir -> dir < cdim) check_streaming

let test_generated_accel () =
  for_standard_dirs ~select:(fun ~cdim dir -> dir >= cdim) check_accel

let test_generated_faces () =
  for_standard_dirs ~select:(fun ~cdim:_ _ -> true) check_faces

(* The emission rule: every direction of every standard configuration is
   in the registry and its bundle carries the emitter's counts; the set
   of directions left out is empty. *)
let test_registry_complete () =
  let left_out = ref [] in
  List.iter
    (fun (family, p, cdim, vdim) ->
      let lay = layout ~cdim ~vdim ~family ~p in
      let name = Modal.family_name family in
      for dir = 0 to cdim + vdim - 1 do
        let st = Codegen.dir_stats lay ~dir in
        match Gen.find ~family:name ~poly_order:p ~cdim ~vdim ~dir with
        | Some b ->
            if b.Gen.mults <> st.Codegen.cse_mults
               || b.Gen.mults_raw <> st.Codegen.raw_mults
            then
              Alcotest.failf
                "%s p=%d %dx%dv dir %d: bundle counts %d/%d <> emitter %d/%d"
                name p cdim vdim dir b.Gen.mults b.Gen.mults_raw
                st.Codegen.cse_mults st.Codegen.raw_mults;
            if b.Gen.mults <= 0 || b.Gen.mults_raw < b.Gen.mults then
              Alcotest.failf "%s p=%d %dx%dv dir %d: bad mults %d (raw %d)"
                name p cdim vdim dir b.Gen.mults b.Gen.mults_raw;
            if b.Gen.chunks < 1 then
              Alcotest.failf "%s p=%d %dx%dv dir %d: no chunks" name p cdim
                vdim dir
        | None ->
            left_out :=
              Printf.sprintf "%dx%dv p%d %s dir %d" cdim vdim p name dir
              :: !left_out
      done)
    Codegen.standard_configs;
  Alcotest.(check (list string))
    "directions left out of the registry" [] (List.rev !left_out);
  (* unsupported family resolves to nothing *)
  Alcotest.(check bool)
    "maximal-order not in registry" true
    (Gen.find ~family:"maximal-order" ~poly_order:1 ~cdim:1 ~vdim:1 ~dir:0
    = None)

(* Fig. 1 claim shape: the unrolled modal 1X2V p=1 volume kernel needs far
   fewer multiplications than the alias-free nodal quadrature update. *)
let test_mult_counts () =
  let lay = layout ~cdim:1 ~vdim:2 ~family:Modal.Tensor ~p:1 in
  let _, st = Codegen.emit_streaming_volume_off lay ~dir:0 ~name:"k" in
  let m_stream = st.Codegen.raw_mults in
  let accel_mults vdir =
    let support = Tensors.acceleration_support lay ~vdir in
    Codegen.mult_count_t3 (Tensors.volume lay.Layout.basis ~support ~dir:vdir)
  in
  let total = m_stream + accel_mults 1 + accel_mults 2 in
  let nodal = Codegen.nodal_mult_estimate lay in
  if not (total < nodal / 2) then
    Alcotest.failf "modal volume mults %d not << nodal estimate %d" total nodal;
  if total > 150 then
    Alcotest.failf "modal volume mults %d larger than expected O(100)" total

(* The emitter on layouts the registry does not build (maximal-order, and
   p=3): every dumped translation unit has balanced brackets of all kinds,
   and each kernel it defines has exactly one entry in the table of its
   kind, at the id its position gives.  bin/dune compiles one such dump
   with the C compiler. *)
let is_ident c =
  (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_'

let check_dump ~what src =
  List.iter
    (fun (o, c) ->
      let depth = ref 0 in
      String.iter
        (fun ch ->
          if ch = o then incr depth else if ch = c then decr depth;
          if !depth < 0 then Alcotest.failf "%s: unbalanced %c%c" what o c)
        src;
      if !depth <> 0 then Alcotest.failf "%s: unbalanced %c%c" what o c)
    [ ('{', '}'); ('(', ')'); ('[', ']') ];
  let lines = String.split_on_char '\n' src in
  let defined =
    List.filter_map
      (fun l ->
        let pre = "static void " in
        let n = String.length pre in
        if String.starts_with ~prefix:pre l then
          let rest = String.sub l n (String.length l - n) in
          Some (String.sub rest 0 (String.index rest '('))
        else None)
      lines
  in
  (* table entries are "  NAME, /* ID */"; ids restart at each table *)
  let entries = ref [] and next_id = ref 0 in
  List.iter
    (fun l ->
      if String.ends_with ~suffix:"[] = {" l then next_id := 0
      else
        match String.index_opt l ',' with
        | Some k
          when String.starts_with ~prefix:"  " l
               && String.ends_with ~suffix:" */" l
               && String.for_all is_ident (String.sub l 2 (k - 2)) ->
            let name = String.sub l 2 (k - 2) in
            let id = String.sub l (k + 5) (String.length l - k - 8) in
            Alcotest.(check string)
              (Printf.sprintf "%s: id of %s" what name)
              (string_of_int !next_id) id;
            incr next_id;
            entries := name :: !entries
        | _ -> ())
    lines;
  if defined = [] then Alcotest.failf "%s: no kernel emitted" what;
  Alcotest.(check (list string))
    (what ^ ": one table entry per emitted kernel")
    (List.sort compare defined)
    (List.sort compare !entries)

let test_source_sanity () =
  List.iter
    (fun (family, p, cdim, vdim) ->
      let lay = layout ~cdim ~vdim ~family ~p in
      for dir = 0 to cdim + vdim - 1 do
        check_dump
          ~what:
            (Printf.sprintf "%dx%dv p=%d %s dir %d" cdim vdim p
               (Modal.family_name family) dir)
          (Codegen.dump_dir lay ~dir)
      done)
    [ (Modal.Maximal_order, 1, 1, 2); (Modal.Maximal_order, 2, 2, 2);
      (Modal.Serendipity, 3, 1, 1) ]

let () =
  Alcotest.run "dg_codegen"
    [
      ( "generated",
        [
          Alcotest.test_case "streaming kernels match tensors" `Quick
            test_generated_streaming;
          Alcotest.test_case "acceleration kernels match tensors" `Quick
            test_generated_accel;
          Alcotest.test_case "face kernels match tensors" `Quick
            test_generated_faces;
          Alcotest.test_case "registry covers advertised configs" `Quick
            test_registry_complete;
          Alcotest.test_case "multiplication counts (Fig. 1)" `Quick test_mult_counts;
          Alcotest.test_case "source sanity" `Quick test_source_sanity;
        ] );
    ]
