(** Generation of unrolled, matrix-free OCaml kernels from the sparse
    coupling tensors — the analogue of the paper's Maxima-generated C++
    kernels (Fig. 1).  Emitted code is straight-line with all tensor
    entries folded to literals.  [lib/genkernels] builds its module from
    {!registry_payload} at build time (through [bin/kernel_gen]); nothing
    generated is committed. *)

module Layout = Dg_kernels.Layout
module Sparse = Dg_kernels.Sparse

val mult_count_t3 : Sparse.t3 -> int
(** Multiplications in the plain unrolled form of a 3-tensor application
    (before CSE) — the [raw_mults] of {!emit_t3_apply_off}. *)

val nodal_mult_estimate : Layout.t -> int
(** Multiplication estimate for the equivalent alias-free nodal
    quadrature update — the O(N_q N_p)-with-dimensionality-factor cost the
    paper quotes (~250 vs ~70 at 1X2V p=1). *)

type stats = {
  raw_mults : int;  (** multiplications of the plain unrolled form *)
  cse_mults : int;  (** after common-subexpression elimination *)
  chunks : int;  (** part functions the kernel was split into *)
}
(** Cost accounting for an emitted offset kernel; surfaces in the
    per-kernel header comment and the registry bundle metadata. *)

val emit_t3_apply_off : name:string -> Sparse.t3 -> string * stats
(** Unrolled 3-tensor application reading [Array.unsafe_get f (foff + n)]
    and accumulating into [out.(ooff + l)] via [Array.unsafe_set] — runs
    in place on flat field storage.  Repeated [alpha.(m) * f.(n)] products
    are hoisted (CSE) and kernels over the per-part multiplication budget
    are split into sequential part functions stitched by a wrapper. *)

val emit_t2_apply_off : name:string -> Sparse.t2 -> string * stats
val mult_count_t2 : Sparse.t2 -> int

val emit_streaming_volume_off :
  Layout.t -> dir:int -> name:string -> string * stats
(** The specialized Fig.-1-style streaming volume kernel: the
    two-coefficient flux expansion is folded in, so it takes the
    velocity-cell center [wv] and width [dv] instead of [alpha].  Runs in
    place like {!emit_t3_apply_off}; already minimal, so
    [cse_mults = raw_mults]. *)

val standard_configs : (Dg_basis.Modal.family * int * int * int) list
(** The (family, poly_order, cdim, vdim) configurations whose kernel
    bundles [lib/genkernels] generates, every direction of each, up to
    the paper's 2X3V p=2 and 3X3V p=1 Serendipity runs; every other
    configuration runs the interpreted sparse path. *)

val emit_face_kernels :
  Dg_kernels.Tensors.face ->
  name:(string -> string) ->
  (string * string * string * stats) list
(** The five face kernels of a direction in the order the solver runs
    them (restrict_lo, restrict_hi, face, lift_lo, lift_hi): for each,
    its bundle field, kernel name ([name kind]), source and stats. *)

val dir_stats : Layout.t -> dir:int -> stats
(** Hot-path cost of the kernel bundle for one direction of a layout, as
    the registry emits it: summed over the kernels dispatch runs (the
    streaming volume form replaces the generic one on configuration
    directions, and the five face kernels carry the surface term). *)

val registry_payload : unit -> string
(** The complete generated-kernel module source: a bundle for every
    direction of every standard configuration, plus the dispatch
    registry.  Deterministic; [bin/kernel_gen] prints it and the
    [lib/genkernels] build rule compiles the result. *)
