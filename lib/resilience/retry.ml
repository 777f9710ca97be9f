(* The recovery ladder's policy as a pure core.

   [tick] says when a health-check window closes, [decide] turns a closed
   window into the next ladder value and exactly one decision, and [tally]
   counts what was performed.  [Vm_app.run_resilient] is the IO shell: it
   steps the state, fires faults, runs the tier-0 limiter and the health
   scan, and performs the decisions made here. *)

type policy = {
  check_every : int;  (* health-check cadence, in steps *)
  max_retries : int;  (* consecutive failed windows rolled back in memory *)
  max_restores : int;  (* tier-2 checkpoint restores before tier 3 *)
  dt_shrink : float;  (* dt multiplier on a failed window (< 1) *)
  dt_grow : float;  (* dt-limit regrowth per healthy window (> 1) *)
  energy_jump_tol : float;  (* relative energy jump treated as unhealthy *)
}

let default =
  {
    check_every = 10;
    max_retries = 8;
    max_restores = 1;
    dt_shrink = 0.5;
    dt_grow = 1.5;
    energy_jump_tol = 0.5;
  }

let validate p =
  if p.check_every < 1 then invalid_arg "Retry: check_every must be >= 1";
  if p.max_retries < 0 then invalid_arg "Retry: max_retries must be >= 0";
  if p.max_restores < 0 then invalid_arg "Retry: max_restores must be >= 0";
  if not (p.dt_shrink > 0.0 && p.dt_shrink < 1.0) then
    invalid_arg "Retry: dt_shrink must be in (0, 1)";
  if not (p.dt_grow > 1.0) then invalid_arg "Retry: dt_grow must be > 1";
  if not (p.energy_jump_tol > 0.0) then
    invalid_arg "Retry: energy_jump_tol must be > 0"

type ladder = {
  failed : int;
  restores : int;
  dt_ceiling : float;
  since_check : int;
  next_checkpoint : int;
  checkpoint_every : int;
}

let start ~checkpoint_every ~step =
  {
    failed = 0;
    restores = 0;
    dt_ceiling = infinity;
    since_check = 0;
    next_checkpoint =
      (if checkpoint_every > 0 then step + checkpoint_every else max_int);
    checkpoint_every;
  }

let tick p l ~at_end =
  let since_check = l.since_check + 1 in
  if since_check >= p.check_every || at_end then
    ({ l with since_check = 0 }, true)
  else ({ l with since_check }, false)

type window = { healthy : bool; step : int; dt : float; dt_cfl : float }
type decision = Accept of { checkpoint : bool } | Rollback | Restore | Abort

let decide p l ~can_restore w =
  if w.healthy then
    (* regrow the dt ceiling toward the CFL limit *)
    let dt_ceiling =
      let c = l.dt_ceiling *. p.dt_grow in
      if c >= w.dt_cfl then infinity else c
    in
    let checkpoint = w.step >= l.next_checkpoint in
    let next_checkpoint =
      if checkpoint then w.step + l.checkpoint_every else l.next_checkpoint
    in
    ({ l with failed = 0; dt_ceiling; next_checkpoint }, Accept { checkpoint })
  else
    (* consecutive failures compound the shrink: exponential backoff *)
    let l =
      {
        l with
        failed = l.failed + 1;
        dt_ceiling = Float.min l.dt_ceiling w.dt *. p.dt_shrink;
      }
    in
    if l.failed <= p.max_retries then (l, Rollback)
    else if l.restores < p.max_restores && can_restore then
      ({ l with failed = 0; restores = l.restores + 1 }, Restore)
    else (l, Abort)

type stats = {
  mutable steps : int;
  mutable health_checks : int;
  mutable checkpoints : int;
  mutable checkpoint_s : float;
  (* graceful-degradation ladder accounting *)
  mutable tier0_repairs : int;  (* limiter repaired at least one cell *)
  mutable cells_clamped : int;  (* total cells the limiter rescaled *)
  mutable tier1_rollbacks : int;  (* in-memory rollbacks *)
  mutable tier2_restores : int;  (* on-disk checkpoint restores *)
  mutable tier3_aborts : int;  (* clean aborts (0 or 1) *)
  mutable stopped : string option;  (* why a supervised run ended early *)
}

let fresh_stats () =
  {
    steps = 0;
    health_checks = 0;
    checkpoints = 0;
    checkpoint_s = 0.0;
    tier0_repairs = 0;
    cells_clamped = 0;
    tier1_rollbacks = 0;
    tier2_restores = 0;
    tier3_aborts = 0;
    stopped = None;
  }

let tally s l d =
  let count = Dg_obs.Obs.count in
  s.health_checks <- s.health_checks + 1;
  count "resilience.health_checks" 1;
  match d with
  | Accept _ -> if l.failed > 0 then count "resilience.deescalations" 1
  | Rollback ->
      s.tier1_rollbacks <- s.tier1_rollbacks + 1;
      count "resilience.tier1_rollbacks" 1
  | Restore ->
      s.tier2_restores <- s.tier2_restores + 1;
      count "resilience.tier2_restores" 1
  | Abort ->
      s.tier3_aborts <- s.tier3_aborts + 1;
      count "resilience.tier3_aborts" 1

let pp_stats ppf s =
  Format.fprintf ppf
    "steps=%d health_checks=%d checkpoints=%d checkpoint_s=%.3f \
     tier0_repairs=%d cells_clamped=%d tier1_rollbacks=%d tier2_restores=%d \
     tier3_aborts=%d%s"
    s.steps s.health_checks s.checkpoints s.checkpoint_s s.tier0_repairs
    s.cells_clamped s.tier1_rollbacks s.tier2_restores s.tier3_aborts
    (match s.stopped with None -> "" | Some why -> " stopped=" ^ why)
