(* Generation of unrolled, matrix-free C kernels from the sparse coupling
   tensors — the analogue of the paper's Maxima-generated C++ kernels
   (Fig. 1).  The emitted code is straight-line: all loops unrolled, all
   tensor entries folded to double-precision literals, terms grouped by
   output coefficient so the compiler can schedule the dense instruction
   stream (the paper's ILP discussion).

   Three kernel kinds, all run in place on flat field storage:
   - [emit_t3_apply_off]: unrolls a generic 3-tensor application
       out[ooff + l] += scale * sum_entries c * alpha[m] * f[foff + n]
   - [emit_t2_apply_off]: the same for a 2-tensor application (the face
     restrictions and lifts);
   - [emit_streaming_volume_off]: the specialized Fig.-1-style kernel for
     the collisionless streaming volume term, where the two-coefficient
     flux expansion is folded in so the kernel takes only the cell geometry
     (velocity-cell center [wv] and width [dv]) and the distribution
     coefficients.
   Each kind has one table of function pointers, indexed by kernel id.
   [registry_sources] emits every direction bundle of [standard_configs]
   as one C file (kernels, tables, OCaml stubs) and the OCaml module that
   maps each direction to its kernel ids; lib/genkernels builds both.

   Every expression is written out fully parenthesized in the order it is
   evaluated: products and sums associate to the left, a hoisted product
   is one named temporary.  Built with -ffp-contract=off (no fused
   multiply-add) and without -ffast-math, a C compiler must evaluate each
   float operation exactly as written, so the kernels' results are fixed
   by this file alone (test_dispatch pins them bit for bit). *)


module Layout = Dg_kernels.Layout
module Tensors = Dg_kernels.Tensors
module Sparse = Dg_kernels.Sparse
module Flux = Dg_kernels.Flux
module Modal = Dg_basis.Modal

let lit v =
  (* full-precision literal that round-trips and stays a double literal *)
  let s = Printf.sprintf "%.17g" v in
  let s =
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'n') s then s
    else s ^ "."
  in
  "(" ^ s ^ ")"

(* Group tensor entries by output row l. *)
let rows_of_t3 (t : Sparse.t3) =
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun e c ->
      let l = t.Sparse.li.(e) in
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl l) in
      Hashtbl.replace tbl l ((t.Sparse.mi.(e), t.Sparse.ni.(e), c) :: prev))
    t.Sparse.cv;
  List.sort compare (Hashtbl.fold (fun l terms acc -> (l, List.rev terms) :: acc) tbl [])

(* Multiplications in the generic unrolled form: 2 per term (c*alpha, *f)
   plus one scale multiply per output row. *)
let mult_count_t3 (t : Sparse.t3) =
  let rows = rows_of_t3 t in
  List.fold_left (fun acc (_, terms) -> acc + 1 + (2 * List.length terms)) 0 rows

(* Estimated multiplications for the equivalent alias-free *nodal*
   quadrature update of the same volume term: interpolation of f to the
   quadrature points (nq*np), pointwise flux multiply (nq), and the
   weighted-derivative scatter back (np*nq) — the O(N_q N_p) cost the paper
   quotes (~250 vs ~70 for 1X2V p=1). *)
let nodal_mult_estimate (lay : Layout.t) =
  let p = Dg_basis.Modal.poly_order lay.Layout.basis in
  let pdim = lay.Layout.pdim in
  let np = Dg_util.Combi.pow_int (p + 1) pdim in
  let nq1 = Dg_basis.Nodal_basis.alias_free_quad_points ~poly_order:p in
  let nq = Dg_util.Combi.pow_int nq1 pdim in
  (* one interpolation, then per phase-space direction a pointwise flux
     multiply and a weighted-derivative scatter — the hidden dimensionality
     factor of the quadrature update *)
  (nq * np) + (pdim * (nq + (np * nq)))


(* --- unrolled kernels (run directly on field blocks) -------------------- *)

(* The unrolled kernels read f at [foff + n] and write out at [ooff + l],
   matching Sparse.apply_t3_off/apply_t2_off: the solver hot path calls
   them on the big per-cell blocks of a field without copying.  Nothing is
   bounds-checked: offsets come from Field.unsafe_cell_offset and every
   index is a literal within the cell block, so the bounds are established
   once per cell, not per float (arm VMDG_BOUNDS_CHECK=1 to re-check
   offsets at the Field layer when debugging).  [f] and [out] may be the
   same array (the face flux reads its traces from the scratch it writes
   G into), so no pointer is declared [restrict]. *)

(* Per-emitted-kernel statistics, echoed into the generated header comment
   and the registry bundles. *)
type stats = {
  raw_mults : int; (* multiplications of the plain unrolled form *)
  cse_mults : int; (* after common-subexpression elimination *)
  chunks : int; (* parts (CSE scopes) the kernel was split into *)
}

(* The CSE pass hoists products within one part of a kernel: output rows
   in sequential ranges of at most [max_rows] rows AND at most
   [chunk_mult_budget] unrolled multiplications, each emitted as its own
   block.  The bounds fix which products are hoisted, and a hoisted
   product rounds as [c * (alpha * f)] where an inline one rounds as
   [(c * alpha) * f]: moving them changes result bits. *)
let max_rows = 8
let chunk_mult_budget = 2_000

let chunk_rows ~row_cost rows =
  let rec go acc cur n cost = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | r :: rest ->
        let rc = row_cost r in
        if cur <> [] && (n >= max_rows || cost + rc > chunk_mult_budget) then
          go (List.rev cur :: acc) [ r ] 1 rc rest
        else go acc (r :: cur) (n + 1) (cost + rc) rest
  in
  go [] [] 0 0 rows

(* The C parameter lists of the three kernel kinds. *)
let t3_params =
  "double scale, const double *alpha, const double *f, ptrdiff_t foff, \
   double *out, ptrdiff_t ooff"

let t2_params =
  "double scale, const double *f, ptrdiff_t foff, double *out, ptrdiff_t ooff"

let stream_params =
  "double wv, double dv, double rdx2, const double *f, ptrdiff_t foff, \
   double *out, ptrdiff_t ooff"

(* Emit C function [name] over chunked [rows], one block per part:
   [emit_part] renders one part's body (hoisted temporaries, then the row
   updates).  Returns the number of parts. *)
let emit_chunked ~name ~params ~row_cost ~emit_part rows buf =
  Buffer.add_string buf (Printf.sprintf "static void %s(%s)\n{\n" name params);
  let chunks = chunk_rows ~row_cost rows in
  List.iter
    (fun chunk ->
      Buffer.add_string buf "  {\n";
      emit_part buf chunk;
      Buffer.add_string buf "  }\n")
    chunks;
  Buffer.add_string buf "}\n";
  max 1 (List.length chunks)

let ag m = Printf.sprintf "alpha[%d]" m
let fg n = Printf.sprintf "f[foff + %d]" n

let out_update buf l rhs =
  Buffer.add_string buf (Printf.sprintf "    out[ooff + %d] += %s;\n" l rhs)

(* The CSE pass over one part's multiply-add list: [alpha[m] * f[n]]
   products recurring across output rows (shared face sums and
   alpha-weighted terms recur heavily in velocity-direction kernels) are
   hoisted into one temporary each, turning their uses from two
   multiplications into one.  Scoped per part, so every block stays
   self-contained straight-line code. *)
let emit_t3_part ~cse_mults buf rows =
  let counts = Hashtbl.create 128 in
  List.iter
    (fun (_, terms) ->
      List.iter
        (fun (m, n, _) ->
          Hashtbl.replace counts (m, n)
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts (m, n))))
        terms)
    rows;
  let hoisted =
    List.sort compare
      (Hashtbl.fold (fun k c acc -> if c >= 2 then k :: acc else acc) counts [])
  in
  List.iter
    (fun (m, n) ->
      Buffer.add_string buf
        (Printf.sprintf "    const double x%d_%d = %s * %s;\n" m n (ag m)
           (fg n));
      incr cse_mults)
    hoisted;
  let is_hoisted mn =
    match Hashtbl.find_opt counts mn with Some c -> c >= 2 | None -> false
  in
  List.iter
    (fun (l, terms) ->
      let b = Buffer.create 256 in
      Buffer.add_string b "scale * (";
      List.iteri
        (fun i (m, n, c) ->
          if i > 0 then Buffer.add_string b " + ";
          if is_hoisted (m, n) then begin
            Buffer.add_string b (Printf.sprintf "%s * x%d_%d" (lit c) m n);
            incr cse_mults
          end
          else begin
            Buffer.add_string b
              (Printf.sprintf "%s * %s * %s" (lit c) (ag m) (fg n));
            cse_mults := !cse_mults + 2
          end)
        terms;
      Buffer.add_string b ")";
      incr cse_mults (* scale *);
      out_update buf l (Buffer.contents b))
    rows

let kernel_comment name (st : stats) =
  Printf.sprintf "/* %s: %d mults unrolled, %d after cse, %d chunk%s */\n"
    name st.raw_mults st.cse_mults st.chunks
    (if st.chunks = 1 then "" else "s")

let emit_t3_apply_off ~name (t : Sparse.t3) =
  let body = Buffer.create 4096 in
  let cse_mults = ref 0 in
  let chunks =
    emit_chunked ~name ~params:t3_params
      ~row_cost:(fun (_, terms) -> 1 + (2 * List.length terms))
      ~emit_part:(emit_t3_part ~cse_mults) (rows_of_t3 t) body
  in
  let st = { raw_mults = mult_count_t3 t; cse_mults = !cse_mults; chunks } in
  (kernel_comment name st ^ Buffer.contents body, st)

(* Group 2-tensor entries by output row. *)
let rows_of_t2 (t : Sparse.t2) =
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun e v ->
      let r = t.Sparse.ri.(e) in
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl r) in
      Hashtbl.replace tbl r ((t.Sparse.ci.(e), v) :: prev))
    t.Sparse.vv;
  List.sort compare (Hashtbl.fold (fun r terms acc -> (r, List.rev terms) :: acc) tbl [])

(* t2 terms are single products [v * f[c]]: no shared alpha*f pairs to
   eliminate, so the pass is plain unrolling and [cse_mults = raw_mults]. *)
let emit_t2_apply_off ~name (t : Sparse.t2) =
  let body = Buffer.create 2048 in
  let mults = ref 0 in
  let emit_part buf rows =
    List.iter
      (fun (r, terms) ->
        let b = Buffer.create 128 in
        Buffer.add_string b "scale * (";
        List.iteri
          (fun i (c, v) ->
            if i > 0 then Buffer.add_string b " + ";
            Buffer.add_string b (Printf.sprintf "%s * %s" (lit v) (fg c));
            incr mults)
          terms;
        Buffer.add_string b ")";
        incr mults;
        out_update buf r (Buffer.contents b))
      rows
  in
  let chunks =
    emit_chunked ~name ~params:t2_params
      ~row_cost:(fun (_, terms) -> 1 + List.length terms)
      ~emit_part (rows_of_t2 t) body
  in
  let st = { raw_mults = !mults; cse_mults = !mults; chunks } in
  (kernel_comment name st ^ Buffer.contents body, st)

(* Specialized streaming-volume kernel (cf. paper Fig. 1).  The flux
   v = wv + (dv/2) xi has exactly two expansion coefficients
     a0 = wv * c0,   a1 = (dv/2) * c1
   so each output row becomes  out_l += rdx2 * (A_l * wv + B_l * dv)
   with A_l, B_l literal dot products of f — the same "pull out common
   factors" structure the CAS applies in Gkeyll.  Already in this
   minimal-multiplication form, so the pass here is unrolling and
   chunking only (no CSE: [cse_mults = raw_mults]). *)
let emit_streaming_volume_off (lay : Layout.t) ~dir ~name =
  let support = Tensors.streaming_support lay ~dir in
  let vol = Tensors.volume lay.Layout.basis ~support ~dir in
  let pdim = lay.Layout.pdim in
  let c0 = Flux.const_coeff ~dim:pdim in
  let c1 = 0.5 *. Flux.linear_coeff ~dim:pdim in
  let const_idx = support.(0) and lin_idx = support.(1) in
  let rows = rows_of_t3 vol in
  let body = Buffer.create 4096 in
  let split terms =
    ( List.filter (fun (m, _, _) -> m = const_idx) terms,
      List.filter (fun (m, _, _) -> m = lin_idx) terms )
  in
  let row_cost (_, terms) =
    let wv_terms, dv_terms = split terms in
    List.length wv_terms + List.length dv_terms
    + (if wv_terms <> [] then 1 else 0)
    + (if dv_terms <> [] then 1 else 0)
    + 1
  in
  let mults = ref 0 in
  let emit_part buf rows =
    List.iter
      (fun (l, terms) ->
        let wv_terms, dv_terms = split terms in
        let b = Buffer.create 256 in
        let dot coeff items =
          List.iteri
            (fun i (_, n, c) ->
              if i > 0 then Buffer.add_string b " + ";
              Buffer.add_string b
                (Printf.sprintf "%s * %s" (lit (c *. coeff)) (fg n));
              incr mults)
            items
        in
        Buffer.add_string b "rdx2 * (";
        let has_wv = wv_terms <> [] and has_dv = dv_terms <> [] in
        if has_wv then begin
          Buffer.add_string b "(wv * (";
          dot c0 wv_terms;
          Buffer.add_string b "))";
          incr mults
        end;
        if has_dv then begin
          if has_wv then Buffer.add_string b " + ";
          Buffer.add_string b "(dv * (";
          dot c1 dv_terms;
          Buffer.add_string b "))";
          incr mults
        end;
        if (not has_wv) && not has_dv then Buffer.add_string b "0.0";
        Buffer.add_string b ")";
        incr mults (* rdx2 *);
        out_update buf l (Buffer.contents b))
      rows
  in
  let chunks =
    emit_chunked ~name ~params:stream_params ~row_cost ~emit_part rows body
  in
  let st = { raw_mults = !mults; cse_mults = !mults; chunks } in
  (kernel_comment name st ^ Buffer.contents body, st)

(* --- translation units: kernels plus one id-indexed table per kind ------- *)

type kind = T3 | T2 | Stream

(* A C translation unit under construction: the kernel definitions in
   emission order, and every kernel's kind and name, newest first. *)
type tu = { src : Buffer.t; mutable kernels : (kind * string) list }

let new_tu () = { src = Buffer.create 65536; kernels = [] }

let names_of tu kind =
  List.rev
    (List.filter_map
       (fun (k, name) -> if k = kind then Some name else None)
       tu.kernels)

(* Append kernel [name] of [kind] to [tu]; returns its id, the index of
   its entry in the table of its kind. *)
let add_kernel tu kind ~name src =
  Buffer.add_string tu.src src;
  Buffer.add_char tu.src '\n';
  let id = List.length (names_of tu kind) in
  tu.kernels <- (kind, name) :: tu.kernels;
  id

let c_prelude =
  Printf.sprintf
    "#include <stddef.h>\n\n\
     typedef void (*dg_t3_fn)(%s);\n\
     typedef void (*dg_t2_fn)(%s);\n\
     typedef void (*dg_stream_fn)(%s);\n\n"
    t3_params t2_params stream_params

(* One [static const] function-pointer table per non-empty kind, entry
   [id] the kernel of that id. *)
let c_tables tu =
  let b = Buffer.create 4096 in
  List.iter
    (fun (ty, table, names) ->
      if names <> [] then begin
        Buffer.add_string b
          (Printf.sprintf "static const %s %s[] = {\n" ty table);
        List.iteri
          (fun id name ->
            Buffer.add_string b (Printf.sprintf "  %s, /* %d */\n" name id))
          names;
        Buffer.add_string b "};\n\n"
      end)
    [
      ("dg_t3_fn", "dg_t3_table", names_of tu T3);
      ("dg_t2_fn", "dg_t2_table", names_of tu T2);
      ("dg_stream_fn", "dg_stream_table", names_of tu Stream);
    ];
  Buffer.contents b

(* The five face kernels of a direction (Tensors.face), in the order the
   solver runs them: restrict both traces, the face triple, lift into
   both cells.  Returns (bundle field, kind, kernel name, source, stats)
   per kernel; [name kind] names the kernel of kind [kind]. *)
let face_kernels (fc : Tensors.face) ~name =
  let t2 field kind t =
    let src, st = emit_t2_apply_off ~name:(name kind) t in
    (field, T2, name kind, src, st)
  in
  let src, st = emit_t3_apply_off ~name:(name "face") fc.Tensors.triple in
  [
    t2 "restrict_lo" "rlo" fc.Tensors.restrict_lo;
    t2 "restrict_hi" "rhi" fc.Tensors.restrict_hi;
    ("face", T3, name "face", src, st);
    t2 "lift_lo" "llo" fc.Tensors.lift_lo;
    t2 "lift_hi" "lhi" fc.Tensors.lift_hi;
  ]

(* The C translation unit of one direction of any layout, also one the
   registry does not hold: its volume kernel (the streaming form on a
   configuration direction, the acceleration volume term otherwise) with
   its pre-CSE mult count, its five face kernels and their tables.  Needs
   nothing but <stddef.h>. *)
let dump_dir (lay : Layout.t) ~dir =
  let tu = new_tu () in
  let note =
    if Layout.is_config_dir lay dir then begin
      let src, st = emit_streaming_volume_off lay ~dir ~name:"vol_stream" in
      ignore (add_kernel tu Stream ~name:"vol_stream" src);
      Printf.sprintf
        "/* %d multiplications; alias-free nodal quadrature estimate: %d */\n"
        st.raw_mults (nodal_mult_estimate lay)
    end
    else begin
      let support = Tensors.acceleration_support lay ~vdir:dir in
      let vol = Tensors.volume lay.Layout.basis ~support ~dir in
      let src, st = emit_t3_apply_off ~name:"vol_accel" vol in
      ignore (add_kernel tu T3 ~name:"vol_accel" src);
      Printf.sprintf "/* %d multiplications */\n" st.raw_mults
    end
  in
  Buffer.add_string tu.src (note ^ "\n");
  List.iter
    (fun (_, kind, name, src, _) -> ignore (add_kernel tu kind ~name src))
    (face_kernels (Tensors.make_dir lay ~dir).Tensors.face ~name:Fun.id);
  c_prelude ^ Buffer.contents tu.src ^ c_tables tu

(* --- per-direction kernel bundles and the dispatch registry ------------- *)

(* The configurations whose kernels lib/genkernels generates at build time
   (family, poly_order, cdim, vdim): the common production cases up to the
   paper's 2X3V p=2 and 3X3V p=1 Serendipity runs, every direction of
   each.  Everything else runs the interpreted sparse path. *)
let standard_configs =
  [
    (Modal.Serendipity, 1, 1, 1);
    (Modal.Serendipity, 2, 1, 1);
    (Modal.Serendipity, 1, 1, 2);
    (Modal.Serendipity, 2, 1, 2);
    (Modal.Serendipity, 1, 2, 2);
    (Modal.Serendipity, 2, 2, 2);
    (Modal.Serendipity, 1, 2, 3);
    (Modal.Serendipity, 2, 2, 3);
    (Modal.Serendipity, 1, 3, 3);
    (Modal.Tensor, 1, 1, 1);
    (Modal.Tensor, 2, 1, 1);
    (Modal.Tensor, 1, 1, 2);
    (Modal.Tensor, 2, 1, 2);
    (Modal.Tensor, 1, 2, 2);
    (Modal.Tensor, 2, 2, 2);
  ]

let family_tag = function
  | Modal.Tensor -> "tensor"
  | Modal.Serendipity -> "ser"
  | Modal.Maximal_order -> "max"

let config_tag ~family ~p ~cdim ~vdim =
  Printf.sprintf "%dx%dv_p%d_%s" cdim vdim p (family_tag family)

let unit_layout ~cdim ~vdim ~family ~p =
  let pdim = cdim + vdim in
  let grid =
    Dg_grid.Grid.make ~cells:(Array.make pdim 2)
      ~lower:(Array.make pdim (-1.0))
      ~upper:(Array.make pdim 1.0)
  in
  Layout.make ~cdim ~vdim ~family ~poly_order:p ~grid

(* A structural signature of a basis: families can coincide (serendipity =
   tensor at p = 1); identical bases share one emitted bundle and the
   registry maps both keys to it. *)
let basis_signature basis =
  let np = Dg_basis.Modal.num_basis basis in
  String.concat ";"
    (List.init np (fun k ->
         String.concat ","
           (Array.to_list
              (Array.map string_of_int
                 (Dg_util.Multi_index.to_array (Dg_basis.Modal.index basis k))))))

(* Emit the kernels of one (layout, dir) into [tu]; returns the OCaml
   bundle record naming their ids, and the hot-path stats.  The volume
   kernel is the one the sweep runs: the streaming form on configuration
   directions, the generic alpha-based one on velocity directions. *)
let emit_dir_bundle tu (lay : Layout.t) ~dir ~tag =
  let dk = Tensors.make_dir lay ~dir in
  let n kind = Printf.sprintf "%s_%s_d%d" kind tag dir in
  let raw = ref 0 and cse = ref 0 and chunks = ref 0 in
  let add kind name (src, (st : stats)) =
    raw := !raw + st.raw_mults;
    cse := !cse + st.cse_mults;
    chunks := !chunks + st.chunks;
    add_kernel tu kind ~name src
  in
  let vol =
    if Layout.is_config_dir lay dir then
      Printf.sprintf "Stream %d"
        (add Stream (n "vs") (emit_streaming_volume_off lay ~dir ~name:(n "vs")))
    else
      Printf.sprintf "Alpha %d"
        (add T3 (n "vol") (emit_t3_apply_off ~name:(n "vol") dk.Tensors.vol))
  in
  let faces =
    List.map
      (fun (field, kind, name, src, st) ->
        Printf.sprintf "%s = %d" field (add kind name (src, st)))
      (face_kernels dk.Tensors.face ~name:n)
  in
  let record =
    Printf.sprintf
      "let b_%s_d%d : bundle = { vol = %s; %s; mults = %d; mults_raw = %d; \
       chunks = %d }\n"
      tag dir vol (String.concat "; " faces) !cse !raw !chunks
  in
  (record, { raw_mults = !raw; cse_mults = !cse; chunks = !chunks })

let dir_stats lay ~dir = snd (emit_dir_bundle (new_tu ()) lay ~dir ~tag:"stats")

(* The OCaml side of the registry, ahead of the bundle records: the
   flat-float-array check, one external per kernel kind, the bundle
   type. *)
let ml_prelude =
  {|let () =
  (* the C kernels read a float array as the doubles it points to *)
  if Obj.tag (Obj.repr [| 0. |]) <> Obj.double_array_tag then
    failwith
      "Dg_genkernels.Kernels: float arrays are not flat (a \
       -no-flat-float-array compiler); the generated kernels need them flat"

(* [t3 id ~scale alpha f ~foff out ~ooff]: kernel [id] of the 3-tensor
   table, out.(ooff + l) += scale * c * alpha.(m) * f.(foff + n).  The
   C code checks no bound and [id] must come from a bundle. *)
external t3 :
  (int[@untagged]) ->
  scale:(float[@unboxed]) ->
  float array ->
  float array ->
  foff:(int[@untagged]) ->
  float array ->
  ooff:(int[@untagged]) ->
  unit = "dg_gen_t3_byte" "dg_gen_t3"
[@@noalloc]

(* [t2 id ~scale f ~foff out ~ooff]: kernel [id] of the 2-tensor table
   (face restrictions and lifts), out.(ooff + r) += scale * v * f.(foff + c). *)
external t2 :
  (int[@untagged]) ->
  scale:(float[@unboxed]) ->
  float array ->
  foff:(int[@untagged]) ->
  float array ->
  ooff:(int[@untagged]) ->
  unit = "dg_gen_t2_byte" "dg_gen_t2"
[@@noalloc]

(* [stream id ~wv ~dv ~rdx2 f ~foff out ~ooff]: kernel [id] of the
   streaming-volume table, which takes the velocity-cell center and width
   in place of a flux expansion. *)
external stream :
  (int[@untagged]) ->
  wv:(float[@unboxed]) ->
  dv:(float[@unboxed]) ->
  rdx2:(float[@unboxed]) ->
  float array ->
  foff:(int[@untagged]) ->
  float array ->
  ooff:(int[@untagged]) ->
  unit = "dg_gen_stream_byte" "dg_gen_stream"
[@@noalloc]

(* The volume kernel of a direction: a kernel id of [stream] (the
   specialized streaming form of a configuration direction, which takes
   cell geometry) or of [t3] (applied to the flux expansion alpha). *)
type vol = Stream of int | Alpha of int

(* One direction's kernel ids (into the t3, t2 and stream tables) and
   its mult counts. *)
type bundle = {
  vol : vol;
  restrict_lo : int;
  restrict_hi : int;
  face : int;
  lift_lo : int;
  lift_hi : int;
  mults : int;
  mults_raw : int;
  chunks : int;
}

|}

(* The C entry points of the externals in [ml_prelude]: native ones take
   untagged ints and unboxed floats, bytecode ones the boxed arguments. *)
let c_stubs =
  {|value dg_gen_t3(intnat id, double scale, value alpha, value f, intnat foff,
                value out, intnat ooff)
{
  dg_t3_table[id](scale, (const double *) alpha, (const double *) f, foff,
                  (double *) out, ooff);
  return Val_unit;
}

value dg_gen_t3_byte(value *argv, int argn)
{
  (void) argn;
  return dg_gen_t3(Long_val(argv[0]), Double_val(argv[1]), argv[2], argv[3],
                   Long_val(argv[4]), argv[5], Long_val(argv[6]));
}

value dg_gen_t2(intnat id, double scale, value f, intnat foff, value out,
                intnat ooff)
{
  dg_t2_table[id](scale, (const double *) f, foff, (double *) out, ooff);
  return Val_unit;
}

value dg_gen_t2_byte(value *argv, int argn)
{
  (void) argn;
  return dg_gen_t2(Long_val(argv[0]), Double_val(argv[1]), argv[2],
                   Long_val(argv[3]), argv[4], Long_val(argv[5]));
}

value dg_gen_stream(intnat id, double wv, double dv, double rdx2, value f,
                    intnat foff, value out, intnat ooff)
{
  dg_stream_table[id](wv, dv, rdx2, (const double *) f, foff, (double *) out,
                      ooff);
  return Val_unit;
}

value dg_gen_stream_byte(value *argv, int argn)
{
  (void) argn;
  return dg_gen_stream(Long_val(argv[0]), Double_val(argv[1]),
                       Double_val(argv[2]), Double_val(argv[3]), argv[4],
                       Long_val(argv[5]), argv[6], Long_val(argv[7]));
}
|}

(* The generated-kernel sources: [(ml, c)], the OCaml module (externals,
   a bundle of kernel ids for every direction of every standard
   configuration, and [find], the registry keyed by (family, poly_order,
   cdim, vdim, dir)) and the C file (the kernels, their tables and the
   stubs of the externals).  Deterministic: lib/genkernels builds
   kernels.ml and kernel_table.c from it through bin/kernel_gen. *)
let registry_sources () =
  let tu = new_tu () in
  let records = Buffer.create 65536 in
  let index = Buffer.create 1024 in
  let arms = Buffer.create 4096 in
  let seen = Hashtbl.create 16 in
  (* (signature, cdim, vdim) -> tag of the emitted bundle set *)
  List.iter
    (fun (family, p, cdim, vdim) ->
      let lay = unit_layout ~cdim ~vdim ~family ~p in
      let key = (basis_signature lay.Layout.basis, cdim, vdim) in
      let tag =
        match Hashtbl.find_opt seen key with
        | Some tag -> tag
        | None ->
            let tag = config_tag ~family ~p ~cdim ~vdim in
            for dir = 0 to lay.Layout.pdim - 1 do
              let record, st = emit_dir_bundle tu lay ~dir ~tag in
              Buffer.add_string records record;
              Buffer.add_string index
                (Printf.sprintf
                   "   %s dir %d: %d mults unrolled, %d after cse, %d chunks\n"
                   tag dir st.raw_mults st.cse_mults st.chunks)
            done;
            Hashtbl.add seen key tag;
            tag
      in
      for dir = 0 to lay.Layout.pdim - 1 do
        Buffer.add_string arms
          (Printf.sprintf "  | %S, %d, %d, %d, %d -> Some b_%s_d%d\n"
             (Dg_basis.Modal.family_name family)
             p cdim vdim dir tag dir)
      done)
    standard_configs;
  let header =
    "Auto-generated unrolled modal DG kernel bundles (paper Fig. 1 \
     analogue).\n" ^ Buffer.contents index
    ^ "   DO NOT EDIT: generated by bin/kernel_gen."
  in
  let ml =
    String.concat ""
      [
        "(* " ^ header ^ " *)\n\n";
        ml_prelude;
        Buffer.contents records;
        "\nlet find ~(family : string) ~(poly_order : int) ~(cdim : int) \
         ~(vdim : int) ~(dir : int) =\n\
        \  match (family, poly_order, cdim, vdim, dir) with\n";
        Buffer.contents arms;
        "  | _ -> None\n";
      ]
  in
  let c =
    String.concat ""
      [
        "/* " ^ header ^ " */\n\n#include <caml/mlvalues.h>\n";
        c_prelude;
        Buffer.contents tu.src;
        c_tables tu;
        c_stubs;
      ]
  in
  (ml, c)
