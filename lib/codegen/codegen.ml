(* Generation of unrolled, matrix-free OCaml kernels from the sparse
   coupling tensors — the analogue of the paper's Maxima-generated C++
   kernels (Fig. 1).  The emitted code is straight-line: all loops unrolled,
   all tensor entries folded to double-precision literals, terms grouped by
   output coefficient so the compiler can schedule the dense instruction
   stream (the paper's ILP discussion).

   Three kernel kinds, all run in place on flat field storage:
   - [emit_t3_apply_off]: unrolls a generic 3-tensor application
       out.(l) <- out.(l) + scale * sum_entries c * alpha.(m) * f.(n)
   - [emit_t2_apply_off]: the same for a 2-tensor application (the face
     restrictions and lifts);
   - [emit_streaming_volume_off]: the specialized Fig.-1-style kernel for
     the collisionless streaming volume term, where the two-coefficient
     flux expansion is folded in so the kernel takes only the cell geometry
     (velocity-cell center [wv] and width [dv]) and the distribution
     coefficients.
   [registry_payload] bundles them per direction into the module that
   lib/genkernels builds from. *)

module Layout = Dg_kernels.Layout
module Tensors = Dg_kernels.Tensors
module Sparse = Dg_kernels.Sparse
module Flux = Dg_kernels.Flux
module Modal = Dg_basis.Modal

let lit v =
  (* full-precision literal that round-trips and stays a float literal *)
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
   matching Sparse.apply_t3_off/apply_t2_off: the solver hot
   path calls these on the big per-cell blocks of a field without copying.
   All indexed access is emitted as [Array.unsafe_get]/[Array.unsafe_set]:
   offsets come from Field.unsafe_cell_offset and every index is a literal
   within the cell block, so the bounds are established once per cell, not
   per float (arm VMDG_BOUNDS_CHECK=1 to re-check offsets at the Field
   layer when debugging). *)

(* Per-emitted-kernel statistics, echoed into the generated header comment
   and the registry bundles. *)
type stats = {
  raw_mults : int; (* multiplications of the plain unrolled form *)
  cse_mults : int; (* after common-subexpression elimination *)
  chunks : int; (* part functions the kernel was split into *)
}

(* Large straight-line bodies make ocamlopt's per-function passes blow up
   (register allocation over thousands of simultaneously-live CSE temps is
   superlinear: a single 16k-mult part function sent the compiler past
   17 GB) and thrash the instruction cache; chunk output rows into
   part-functions of at most [max_rows] rows AND at most
   [chunk_mult_budget] unrolled multiplications (sequential row ranges),
   stitched by a same-signature wrapper.  Large kernels (the 2x3v p2
   acceleration volume terms) thus compile as a sequence of small
   parts. *)
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

(* Emit [name] over chunked [rows]: [emit_part] renders one part's body
   (preamble + rows); the wrapper forwards [call_args] to every part.
   Returns the number of part functions. *)
let emit_chunked ~name ~header ~call_args ~empty_body ~row_cost ~emit_part
    rows buf =
  match rows with
  | [] ->
      Buffer.add_string buf (header name);
      Buffer.add_string buf empty_body;
      1
  | rows -> (
      let chunks = chunk_rows ~row_cost rows in
      match chunks with
      | [ only ] ->
          Buffer.add_string buf (header name);
          emit_part buf only;
          Buffer.add_string buf "  ()\n";
          1
      | chunks ->
          List.iteri
            (fun i chunk ->
              Buffer.add_string buf
                (header (Printf.sprintf "%s_part%d" name i));
              emit_part buf chunk;
              Buffer.add_string buf "  ()\n\n")
            chunks;
          Buffer.add_string buf (header name);
          List.iteri
            (fun i _ ->
              Buffer.add_string buf
                (Printf.sprintf "  %s_part%d %s;\n" name i call_args))
            chunks;
          Buffer.add_string buf "  ()\n";
          List.length chunks)

let ag m = Printf.sprintf "(Array.unsafe_get alpha %d)" m
let fg n = Printf.sprintf "(Array.unsafe_get f (foff + %d))" n

let out_update buf l rhs =
  Buffer.add_string buf
    (Printf.sprintf
       "  Array.unsafe_set out (ooff + %d) ((Array.unsafe_get out (ooff + \
        %d)) +. %s);\n"
       l l rhs)

(* The CSE pass over one part's multiply-add list: [alpha.(m) *. f.(n)]
   products recurring across output rows (shared face sums and
   alpha-weighted terms recur heavily in velocity-direction kernels) are
   hoisted into one let-binding each, turning their uses from two
   multiplications into one.  Scoped per part function so every chunk stays
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
        (Printf.sprintf "  let x%d_%d = %s *. %s in\n" m n (ag m) (fg n));
      incr cse_mults)
    hoisted;
  let is_hoisted mn =
    match Hashtbl.find_opt counts mn with Some c -> c >= 2 | None -> false
  in
  List.iter
    (fun (l, terms) ->
      let b = Buffer.create 256 in
      Buffer.add_string b "scale *. (";
      List.iteri
        (fun i (m, n, c) ->
          if i > 0 then Buffer.add_string b " +. ";
          if is_hoisted (m, n) then begin
            Buffer.add_string b (Printf.sprintf "%s *. x%d_%d" (lit c) m n);
            incr cse_mults
          end
          else begin
            Buffer.add_string b
              (Printf.sprintf "%s *. %s *. %s" (lit c) (ag m) (fg n));
            cse_mults := !cse_mults + 2
          end)
        terms;
      Buffer.add_string b ")";
      incr cse_mults (* scale *);
      out_update buf l (Buffer.contents b))
    rows

let kernel_comment name (st : stats) =
  Printf.sprintf "(* %s: %d mults unrolled, %d after cse, %d chunk%s *)\n"
    name st.raw_mults st.cse_mults st.chunks
    (if st.chunks = 1 then "" else "s")

let emit_t3_apply_off ~name (t : Sparse.t3) =
  let body = Buffer.create 4096 in
  let header n =
    Printf.sprintf
      "let %s ~scale (alpha : float array) (f : float array) ~(foff : int) \
       (out : float array) ~(ooff : int) =\n"
      n
  in
  let cse_mults = ref 0 in
  let chunks =
    emit_chunked ~name ~header ~call_args:"~scale alpha f ~foff out ~ooff"
      ~empty_body:
        "  ignore scale; ignore alpha; ignore f; ignore foff; ignore out; \
         ignore ooff\n"
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

let mult_count_t2 (t : Sparse.t2) =
  List.fold_left
    (fun acc (_, terms) -> acc + 1 + List.length terms)
    0 (rows_of_t2 t)

(* t2 terms are single products [v *. f.(c)] — no shared alpha*f pairs to
   eliminate, so the pass is plain unrolling with unsafe access. *)
let emit_t2_apply_off ~name (t : Sparse.t2) =
  let body = Buffer.create 2048 in
  let header n =
    Printf.sprintf
      "let %s ~scale (f : float array) ~(foff : int) (out : float array) \
       ~(ooff : int) =\n"
      n
  in
  let cse_mults = ref 0 in
  let emit_part buf rows =
    List.iter
      (fun (r, terms) ->
        let b = Buffer.create 128 in
        Buffer.add_string b "scale *. (";
        List.iteri
          (fun i (c, v) ->
            if i > 0 then Buffer.add_string b " +. ";
            Buffer.add_string b (Printf.sprintf "%s *. %s" (lit v) (fg c));
            incr cse_mults)
          terms;
        Buffer.add_string b ")";
        incr cse_mults;
        out_update buf r (Buffer.contents b))
      rows
  in
  let chunks =
    emit_chunked ~name ~header ~call_args:"~scale f ~foff out ~ooff"
      ~empty_body:
        "  ignore scale; ignore f; ignore foff; ignore out; ignore ooff\n"
      ~row_cost:(fun (_, terms) -> 1 + List.length terms)
      ~emit_part (rows_of_t2 t) body
  in
  let st = { raw_mults = mult_count_t2 t; cse_mults = !cse_mults; chunks } in
  (kernel_comment name st ^ Buffer.contents body, st)

(* Specialized streaming-volume kernel (cf. paper Fig. 1).  The flux
   v = wv + (dv/2) xi has exactly two expansion coefficients
     a0 = wv * c0,   a1 = (dv/2) * c1
   so each output row becomes  out_l += rdx2 * (A_l * wv + B_l * dv)
   with A_l, B_l literal dot products of f — the same "pull out common
   factors" structure the CAS applies in Gkeyll.  Already in this
   minimal-multiplication form, so the pass here is unsafe access +
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
  let header n =
    Printf.sprintf
      "let %s ~(wv : float) ~(dv : float) ~(rdx2 : float) (f : float array) \
       ~(foff : int) (out : float array) ~(ooff : int) =\n"
      n
  in
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
              if i > 0 then Buffer.add_string b " +. ";
              Buffer.add_string b
                (Printf.sprintf "%s *. %s" (lit (c *. coeff)) (fg n));
              incr mults)
            items
        in
        Buffer.add_string b "rdx2 *. (";
        let has_wv = wv_terms <> [] and has_dv = dv_terms <> [] in
        if has_wv then begin
          Buffer.add_string b "(wv *. (";
          dot c0 wv_terms;
          Buffer.add_string b "))";
          incr mults
        end;
        if has_dv then begin
          if has_wv then Buffer.add_string b " +. ";
          Buffer.add_string b "(dv *. (";
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
    emit_chunked ~name ~header ~call_args:"~wv ~dv ~rdx2 f ~foff out ~ooff"
      ~empty_body:
        "  ignore wv; ignore dv; ignore rdx2; ignore f; ignore foff; ignore \
         out; ignore ooff\n"
      ~row_cost ~emit_part rows body
  in
  let st = { raw_mults = !mults; cse_mults = !mults; chunks } in
  (kernel_comment name st ^ Buffer.contents body, st)

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

(* The five face kernels of a direction (Tensors.face), in the order the
   solver runs them: restrict both traces, the face triple, lift into
   both cells.  Returns (bundle field, kernel name, source, stats) per
   kernel; [name kind] names the kernel of kind [kind]. *)
let emit_face_kernels (fc : Tensors.face) ~name =
  let t2 field kind t =
    let src, st = emit_t2_apply_off ~name:(name kind) t in
    (field, name kind, src, st)
  in
  let src, st = emit_t3_apply_off ~name:(name "face") fc.Tensors.triple in
  [
    t2 "restrict_lo" "rlo" fc.Tensors.restrict_lo;
    t2 "restrict_hi" "rhi" fc.Tensors.restrict_hi;
    ("face", name "face", src, st);
    t2 "lift_lo" "llo" fc.Tensors.lift_lo;
    t2 "lift_hi" "lhi" fc.Tensors.lift_hi;
  ]

(* Emit the kernel bundle for one (layout, dir); returns
   (source, hot-path stats).  Stats count only the kernels the dispatcher
   actually runs (the streaming volume form is preferred over the generic
   one on configuration directions). *)
let emit_dir_bundle (lay : Layout.t) ~dir ~tag =
  let dk = Tensors.make_dir lay ~dir in
  let n kind = Printf.sprintf "%s_%s_d%d" kind tag dir in
  let buf = Buffer.create 16384 in
  let raw = ref 0 and cse = ref 0 and chunks = ref 0 in
  let add ?(counted = true) src (st : stats) =
    Buffer.add_string buf src;
    Buffer.add_char buf '\n';
    if counted then begin
      raw := !raw + st.raw_mults;
      cse := !cse + st.cse_mults;
      chunks := !chunks + st.chunks
    end
  in
  let stream = Layout.is_config_dir lay dir in
  if stream then begin
    let src, st = emit_streaming_volume_off lay ~dir ~name:(n "vs") in
    add src st
  end;
  (* generic alpha-based volume kernel: counted only when no specialized
     streaming form exists (the dispatcher prefers the streaming form) *)
  let vol_src, vol_st = emit_t3_apply_off ~name:(n "vol") dk.Tensors.vol in
  add ~counted:(not stream) vol_src vol_st;
  let faces = emit_face_kernels dk.Tensors.face ~name:n in
  List.iter (fun (_, _, src, st) -> add src st) faces;
  Buffer.add_string buf
    (Printf.sprintf
       "let b_%s_d%d : bundle = { vol = %s; vol_stream = %s; %s; mults = %d; \
        mults_raw = %d; chunks = %d }\n"
       tag dir (n "vol")
       (if stream then "Some " ^ n "vs" else "None")
       (String.concat "; "
          (List.map (fun (field, kname, _, _) -> field ^ " = " ^ kname) faces))
       !cse !raw !chunks);
  (Buffer.contents buf, { raw_mults = !raw; cse_mults = !cse; chunks = !chunks })

let dir_stats lay ~dir = snd (emit_dir_bundle lay ~dir ~tag:"stats")

(* The complete generated-kernel module: per-direction bundles for every
   direction of every standard configuration, plus a registry keyed by
   (family, poly_order, cdim, vdim, dir).  Deterministic: lib/genkernels
   builds kernels.ml from it through bin/kernel_gen. *)
let registry_payload () =
  let buf = Buffer.create (1 lsl 20) in
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
              let src, st = emit_dir_bundle lay ~dir ~tag in
              Buffer.add_string buf src;
              Buffer.add_char buf '\n';
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
  let out = Buffer.create (1 lsl 20) in
  Buffer.add_string out
    "(* Auto-generated unrolled modal DG kernel bundles (paper Fig. 1 \
     analogue).\n";
  Buffer.add_buffer out index;
  Buffer.add_string out "   DO NOT EDIT: generated by bin/kernel_gen. *)\n\n";
  Buffer.add_string out
    "type t3_fn =\n\
    \  scale:float -> float array -> float array -> foff:int -> float array ->\n\
    \  ooff:int -> unit\n\n\
     type t2_fn =\n\
    \  scale:float -> float array -> foff:int -> float array -> ooff:int -> unit\n\n\
     type stream_fn =\n\
    \  wv:float -> dv:float -> rdx2:float -> float array -> foff:int ->\n\
    \  float array -> ooff:int -> unit\n\n\
     type bundle = {\n\
    \  vol : t3_fn;\n\
    \  vol_stream : stream_fn option;\n\
    \  restrict_lo : t2_fn;\n\
    \  restrict_hi : t2_fn;\n\
    \  face : t3_fn;\n\
    \  lift_lo : t2_fn;\n\
    \  lift_hi : t2_fn;\n\
    \  mults : int;\n\
    \  mults_raw : int;\n\
    \  chunks : int;\n\
     }\n\n";
  Buffer.add_buffer out buf;
  Buffer.add_string out
    "let find ~(family : string) ~(poly_order : int) ~(cdim : int) \
     ~(vdim : int) ~(dir : int) =\n\
    \  match (family, poly_order, cdim, vdim, dir) with\n";
  Buffer.add_buffer out arms;
  Buffer.add_string out "  | _ -> None\n";
  Buffer.contents out
