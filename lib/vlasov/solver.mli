(** The modal, alias-free, matrix-free, quadrature-free Vlasov solver —
    the paper's primary contribution.

    Computes the DG right-hand side df/dt for one plasma species:
    streaming volume+surface terms in configuration directions and
    acceleration (q/m)(E + v x B) terms in velocity directions, as
    sequences of exact tensor applications.  Each per-direction
    application is selected once at creation ({!Sweep.select}): generated
    unrolled kernels (lib/genkernels) when the registry covers the basis,
    the interpreted sparse tensors otherwise.  Velocity-space boundaries are
    zero-flux (conserving particle number exactly); configuration-space
    ghosts must be synchronized by the caller.

    A solver value is immutable after {!create}: each {!rhs} call
    allocates its own scratch, so concurrent sweeps may share one solver.
    {!rhs} iterates the grid of the field it is given, so block-local
    fields of a decomposition work directly. *)

module Layout = Dg_kernels.Layout
module Field = Dg_grid.Field

(** Numerical flux: {!Central} conserves energy exactly (semi-discrete);
    {!Upwind} adds a local Lax-Friedrichs penalty. *)
type flux_kind = Central | Upwind

type t

val create : ?flux:flux_kind -> ?use_kernels:bool -> qm:float -> Layout.t -> t
(** [create ~qm lay] precomputes all coupling tensors for charge-to-mass
    ratio [qm] and selects, per direction, the generated unrolled kernel
    bundle when the registry has one; [flux] defaults to {!Upwind}.
    [use_kernels:false] forces the interpreted sparse path everywhere
    (reference/debugging). *)

val layout : t -> Layout.t

val qm : t -> float
(** The charge-to-mass ratio baked into the acceleration kernels. *)

val num_basis : t -> int
val flux_kind : t -> flux_kind

val specialized_dirs : t -> bool array
(** Per phase-space direction, whether a generated unrolled kernel bundle
    (rather than the interpreted sparse tensors) backs the updates. *)

val kernel_cache_stats : unit -> int * int
(** [(hits, misses)] of the process-wide kernel cache since process start
    (also filed as [solver.kernel_cache_hits]/[_misses] Obs counters when
    tracing).  The cache is always on: every {!create} for the same basis
    identity [(family, poly_order, cdim, vdim)] shares one immutable
    coupling-tensor bundle, whatever its grid (the tensors are
    grid-independent), so seconds of CAS work are paid once per process. *)

val rhs : t -> f:Field.t -> em:Field.t option -> out:Field.t -> unit
(** Full DG right-hand side into [out], sweeping the grid of [f].  [em]
    holds the EM coefficients on the configuration grid (8 blocks:
    Ex..Bz, phi, psi); [None] solves pure streaming (velocity directions
    skipped).  With [Dg_obs] tracing on, the same sweep also files
    per-phase times (fill_alpha, volume, surface) and sweep counters under
    the caller's current span; the penalty is part of the face flux, so
    it has no phase of its own. *)

val max_speeds : t -> em:Field.t option -> float array
(** Per-direction maximum characteristic speeds for the CFL condition.
    Allocates its own scratch — safe to call concurrently with sweeps. *)
