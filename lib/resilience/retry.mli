(** The recovery ladder's policy as a pure core: the knobs, an immutable
    {!ladder} value, the transition that makes every ladder decision, and
    the run statistics.  [Vm_app.run_resilient] is the IO shell that steps
    the state and performs each {!decision}. *)

type policy = {
  check_every : int;
      (** close a health-check window every N steps (and at [tend]) *)
  max_retries : int;
      (** consecutive failed windows rolled back in memory (tier 1) before
          escalating past tier 1 *)
  max_restores : int;
      (** tier-2 budget: on-disk checkpoint restores tolerated before
          tier 3 (clean abort) *)
  dt_shrink : float;
      (** multiplier applied to the dt ceiling on each failed window;
          repeated failures compound, giving exponential backoff *)
  dt_grow : float;
      (** dt-ceiling regrowth per healthy window, until it re-reaches the
          CFL limit *)
  energy_jump_tol : float;
      (** relative total-energy jump between checks treated as unhealthy *)
}

val default : policy
(** [{ check_every = 10; max_retries = 8; max_restores = 1;
      dt_shrink = 0.5; dt_grow = 1.5; energy_jump_tol = 0.5 }] *)

val validate : policy -> unit
(** @raise Invalid_argument on out-of-range knobs. *)

(** {1 The ladder} *)

type ladder = private {
  failed : int;  (** consecutive failed windows *)
  restores : int;  (** tier-2 restores used *)
  dt_ceiling : float;  (** cap on dt; [infinity] while not backing off *)
  since_check : int;  (** steps since the last window closed *)
  next_checkpoint : int;
      (** the first step whose healthy window writes a periodic
          checkpoint; [max_int] without periodic checkpoints *)
  checkpoint_every : int;  (** periodic checkpoint cadence (0: none) *)
}

val start : checkpoint_every:int -> step:int -> ladder
(** The ladder of a run starting at [step]: no failures, no restores, no
    dt ceiling, the first periodic checkpoint [checkpoint_every] steps on
    ([checkpoint_every = 0]: never). *)

val tick : policy -> ladder -> at_end:bool -> ladder * bool
(** Count one step taken; [true] when it closes a window: the
    [check_every]-th step since the last one, or the step that reached
    [tend] ([at_end]). *)

type window = {
  healthy : bool;  (** the health verdict and the energy-jump guard passed *)
  step : int;  (** the step the window closed at *)
  dt : float;  (** that step's dt *)
  dt_cfl : float;  (** that step's CFL dt (uncapped) *)
}

type decision =
  | Accept of { checkpoint : bool }
      (** keep the window as last-known-good; [checkpoint]: write a
          periodic checkpoint first *)
  | Rollback  (** tier 1: back to last-known-good, retry with a lower dt *)
  | Restore  (** tier 2: restore the newest valid on-disk checkpoint *)
  | Abort  (** tier 3: restore last-known-good, checkpoint it, raise *)

val decide :
  policy -> ladder -> can_restore:bool -> window -> ladder * decision
(** The one ladder transition.  A healthy window is [Accept]ed, with
    [checkpoint] at the first one at least [checkpoint_every] steps after
    the previous checkpoint; it resets the failure count and grows the dt
    ceiling by [dt_grow], back to [infinity] once it reaches [dt_cfl].  A
    failed window sets the ceiling to [min ceiling dt * dt_shrink]; the
    first [max_retries] consecutive ones are [Rollback], the next is
    [Restore] while restores < [max_restores] and [can_restore] (a
    checkpoint directory exists), else [Abort]. *)

(** {1 Statistics} *)

type stats = {
  mutable steps : int;
      (** every step taken, those of rolled-back windows included *)
  mutable health_checks : int;  (** windows closed *)
  mutable checkpoints : int;
  mutable checkpoint_s : float;  (** wall seconds spent writing checkpoints *)
  mutable tier0_repairs : int;
      (** tier-0 escalations: limiter applications that repaired >= 1 cell *)
  mutable cells_clamped : int;  (** total cells the limiter rescaled *)
  mutable tier1_rollbacks : int;
      (** tier-1 escalations: failed windows rolled back in memory *)
  mutable tier2_restores : int;
      (** tier-2 escalations: restores from an on-disk checkpoint *)
  mutable tier3_aborts : int;  (** tier-3 escalations: clean aborts (0/1) *)
  mutable stopped : string option;
      (** why a supervised run ended before [tend] (signal name or
          ["max-wall"]), [None] for a run that completed *)
}

val fresh_stats : unit -> stats

val tally : stats -> ladder -> decision -> unit
(** Count a performed decision, made from [ladder], into [stats] and the
    [resilience.health_checks], [resilience.deescalations] (a healthy
    window after failed ones), [resilience.tier1_rollbacks],
    [resilience.tier2_restores] and [resilience.tier3_aborts] counters:
    each closed window counts under exactly one tier. *)

val pp_stats : Format.formatter -> stats -> unit
(** One-line summary, each count once, including per-tier escalations. *)
