(** Dougherty / Lenard-Bernstein (Fokker-Planck) collision operator,

      C[f] = nu d/dv . ( (v - u) f + vth^2 df/dv ),

    discretized with the same modal alias-free machinery as the Vlasov
    terms, on the same sweep body ({!Dg_vlasov.Sweep}): the drift is a
    hyperbolic phase-space flux in face form (restrict, one
    upwind-penalized face flux, lift), mixing the configuration expansion
    of u with the linear-in-v mode; the diffusion uses the
    twice-integrated *recovery* DG scheme of Gkeyll's Fokker-Planck
    operator (ref [22] of the paper), as the sweep's volume, face and
    boundary hooks.  Zero-flux velocity boundaries conserve particle
    number to machine precision; the paper reports this operator roughly
    doubles the update cost (reproduced by [bench efficiency]). *)

module Layout = Dg_kernels.Layout
module Field = Dg_grid.Field

type t

val create : ?n_floor:float -> ?vth2_floor:float -> nu:float -> Layout.t -> t
(** [nu] is the (constant) collision frequency.  Floors default to
    {!Bgk.default_n_floor} / {!Bgk.default_vth2_floor}.
    @raise Invalid_argument unless both floors are positive. *)

val update_prim : t -> f:Field.t -> unit
(** Refresh the primitive moments u(x), vth^2(x) from the current stage
    state; must be called before {!rhs} with the same [f].  Non-realizable
    cells are floor-clamped and counted under
    [collisions.nonrealizable_cells]. *)

val nonrealizable_cells : t -> int
(** Cells flagged non-realizable by the last {!update_prim}. *)

val rhs : t -> f:Field.t -> out:Field.t -> unit
(** Accumulate C[f] into [out] (+=).  Each call allocates its own
    scratch, so concurrent calls on one operator are safe (between
    {!update_prim} calls). *)

val suggest_dt : t -> float
(** Conservative explicit stability bound for the diffusion part. *)
