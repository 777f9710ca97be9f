(** Generation of unrolled, matrix-free C kernels from the sparse
    coupling tensors — the analogue of the paper's Maxima-generated C++
    kernels (Fig. 1).  Emitted code is straight-line with all tensor
    entries folded to literals, each expression written in the order it
    is evaluated, so that a build without contraction
    ([-ffp-contract=off]) fixes every result bit.  [lib/genkernels]
    builds its C files and OCaml module from {!registry_sources} at build
    time (through [bin/kernel_gen]); nothing generated is committed.

    The volume kernel and face triple of each velocity direction whose
    bundle takes at least {!batch_min_mults} multiplications per cell
    also get a 4-lane batch twin, emitted by the same printer in a second lane
    mode: the same statements over GCC vector-extension temporaries, one
    lane per cell of a batch (lane k at [foff + k * fstep], alpha at
    [k * astep], out at [ooff + k * ostep]), each lane rounding exactly
    as the scalar kernel does. *)

module Layout = Dg_kernels.Layout
module Sparse = Dg_kernels.Sparse

val mult_count_t3 : Sparse.t3 -> int
(** Multiplications in the plain unrolled form of a 3-tensor application
    (before CSE), the [raw_mults] of its emitted kernel. *)

val nodal_mult_estimate : Layout.t -> int
(** Multiplication estimate for the equivalent alias-free nodal
    quadrature update — the O(N_q N_p)-with-dimensionality-factor cost the
    paper quotes (~250 vs ~70 at 1X2V p=1). *)

type stats = {
  raw_mults : int;  (** multiplications of the plain unrolled form *)
  cse_mults : int;  (** after common-subexpression elimination *)
  chunks : int;  (** parts (CSE scopes) the kernel was split into *)
}
(** Cost accounting for an emitted offset kernel; surfaces in the
    per-kernel header comment and the registry bundle metadata. *)

val emit_streaming_volume_off :
  Layout.t -> dir:int -> name:string -> string * stats
(** The specialized Fig.-1-style streaming volume kernel: the
    two-coefficient flux expansion is folded in, so it takes the
    velocity-cell center [wv] and width [dv] instead of [alpha], and
    runs in place on flat storage:
    [out[ooff + l] += rdx2 * (wv * (...) + dv * (...))] over
    [f[foff + n]].  Already minimal, so [cse_mults = raw_mults]. *)

val dump_dir : Layout.t -> dir:int -> string
(** A self-contained C translation unit (it includes only
    [<stddef.h>]) for one direction of any layout, also one the registry
    does not build: the volume kernel (the streaming form on a
    configuration direction) with its mult count, the five face kernels
    (restrict_lo, restrict_hi, face, lift_lo, lift_hi), and one
    function-pointer table per kernel kind holding each kernel once. *)

val standard_configs : (Dg_basis.Modal.family * int * int * int) list
(** The (family, poly_order, cdim, vdim) configurations whose kernel
    bundles [lib/genkernels] generates, every direction of each, up to
    the paper's 2X3V p=2 and 3X3V p=1 Serendipity runs; every other
    configuration runs the interpreted sparse path. *)

val batch_min_mults : int
(** The bundle size, in multiplications per cell after CSE, from which a
    velocity direction gets batch twins: the crossover of the whole-sweep
    gain that [bench/main.exe sweep] measures.  Fixed at build time. *)

val dir_stats : Layout.t -> dir:int -> stats
(** Hot-path cost of the kernel bundle for one direction of a layout, as
    the registry emits it: summed over its volume kernel (the streaming
    form on a configuration direction, the generic alpha-based one on a
    velocity direction) and the five face kernels of the surface term.
    The bundle holds no other kernel. *)

val registry_sources : unit -> string * string * string
(** [(ml, c, c_x4)]: the generated-kernel sources.  [c] holds every
    kernel of every direction of every standard configuration, one
    [static const] function-pointer table per kind (t3, t2, stream) and
    the C stubs of the externals; [c_x4] the same for the batch twins of
    the batched directions (one table, t3_x4); [ml] holds those
    externals, a bundle of kernel ids per direction (with its batch ids,
    if any) and [find], the registry keyed by (family, poly_order, cdim,
    vdim, dir).  Deterministic; [bin/kernel_gen] writes all three and the
    [lib/genkernels] rules compile them. *)
