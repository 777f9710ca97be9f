(** Quadrature-free velocity moments of the distribution function.

    All velocity integrals reduce to the exact per-dimension tables
    [int xi^r P~_n dxi], so the moments — density M0, momentum M1_k,
    energy-carrying M2 = int |v|^2 f dv, and the plasma current — inherit
    the alias-free property.  The reduction is local to a configuration
    cell: no cross-cell (and on a cluster, no cross-rank) communication,
    the structural point of the paper's two-level decomposition. *)

module Layout = Dg_kernels.Layout
module Field = Dg_grid.Field

type t
(** Moment weights tabulated once per (velocity cell, moment, mode), kept
    per (velocity cell, moment) as their nonzeros, modes ascending.

    A [t] also keeps the tables of the scales (charges) it has been
    called with, and a total's scratch, so it belongs to one app or
    collision operator, the way a solver workspace does: two threads must
    not call it at once. *)

val make : Layout.t -> t
(** Tabulate the M0, M1_k and M2 weights of every velocity cell. *)

val m0 : t -> f:Field.t -> out:Field.t -> unit
val m2 : t -> f:Field.t -> out:Field.t -> unit
(** Accumulate into configuration field [out] (zero it for a fresh moment).
    Every moment is one walk over f in a fixed order (phase cells in grid
    order, pencil by pencil along the last velocity dimension, and per cell
    the nonzero weights' modes ascending), the order a per-cell pass over
    every mode gives less its zero-weight terms, so the current is exactly
    [q M1] of the discrete f, as discrete energy conservation needs.  [f]
    may have velocity ghosts or not.
    @raise Invalid_argument if [f] or [out] is not on the layout's grid or
    has too few components. *)

val accumulate_current : t -> charge:float -> f:Field.t -> out:Field.t -> unit
(** [J_k += q M1_k] into component blocks [k * ncbasis] of [out]. *)

val raw_moments :
  t -> f:Field.t -> m0:Field.t -> m1:Field.t -> m2:Field.t -> unit
(** {!m0}, [accumulate_current ~charge:1.0] and {!m2} into [m0], [m1] and
    [m2] in one walk, each bitwise as its own call.  The three must be
    distinct fields. *)

val accumulate_charge : t -> charge:float -> f:Field.t -> out:Field.t -> unit

val total_of_config_field : Layout.t -> fld:Field.t -> comp_off:int -> float
(** Domain integral of one configuration-space expansion block. *)

val total_mass : t -> f:Field.t -> float
(** [int f dz] (multiply by the species mass for physical mass). *)

val total_kinetic_energy : t -> mass:float -> f:Field.t -> float
(** [(m/2) int |v|^2 f dz]. *)
