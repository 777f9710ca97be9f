(** Per-cell phase-space flux expansions alpha_h (paper Eq. 4).

    Streaming: v_d has exactly two expansion coefficients.  Acceleration:
    q/m (E + v x B) is an exact L2 projection onto the phase basis — a
    precomputed sparse linear map from the configuration-space
    coefficients of E and B. *)

module Modal = Dg_basis.Modal

val const_coeff : dim:int -> float
(** Expansion coefficient of the constant function 1 on the constant
    mode: sqrt(2)^dim. *)

val linear_coeff : dim:int -> float
(** Coefficient of xi_i on the corresponding linear mode. *)

(** {1 Streaming} *)

type stream_ctx = {
  vd : int;  (** paired velocity dimension, 0-based within velocity space *)
  const_idx : int;  (** phase index of the constant mode *)
  lin_idx : int;  (** phase index of the mode linear in v_vd *)
  const : float;  (** [const_coeff ~dim:pdim] *)
  lin : float;  (** the linear coefficient, [0.5 dv linear_coeff ~dim:pdim] *)
  half_dv : float;  (** [0.5 dv] *)
}
(** The constants of the streaming flux expansion of one configuration
    direction: everything but the velocity-cell center. *)

val make_stream_ctx : Layout.t -> dir:int -> dv:float -> stream_ctx
(** The constants of configuration direction [dir] in cells of
    paired-velocity width [dv]. *)

val streaming_alpha : stream_ctx -> vcenter:float array -> float array -> unit
(** Fill the expansion of v_d for a cell with velocity-cell centers
    [vcenter] (one per velocity dimension; touches only the support
    entries). *)

val streaming_max_speed : stream_ctx -> vcenter:float array -> float
(** Max |v_d| over the cell, [|vcenter.(vd)| + dv/2]: the streaming
    penalty speed. *)

(** {1 Acceleration} *)

val ex : int
val ey : int
val ez : int
val bx : int
val by : int
val bz : int

val eps : int -> int -> int -> float
(** Levi-Civita symbol. *)

type term = { dst : int; comp : int; src : int; center_dim : int; coef : float }

type accel_ctx = {
  vdir : int;
  terms : term array;
  support : int array;
  maxval : float array;
}

val make_accel_ctx : Layout.t -> vdir:int -> qm:float -> accel_ctx
(** Precompute the projection map of q/m (E_j + (v x B)_j) for velocity
    direction [vdir]. *)

val accel_alpha :
  accel_ctx ->
  em:float array ->
  em_off:int ->
  ncbasis:int ->
  vcenter:float array ->
  float array ->
  unit
(** Fill alpha from the EM coefficient block at [em_off] (8 blocks of
    [ncbasis]) and the velocity-cell centers. *)

val accel_max_speed : accel_ctx -> float array -> float
(** Upper bound on |a_j| over the cell (Lax-Friedrichs penalty). *)
