(** Elastic BSP supervision: superstep-by-superstep re-synthesis of the
    64-node run with heartbeats, phi-accrual failure detection, recovery
    policies, and crash-consistent checkpointing.

    Each superstep runs on a fresh engine: every live rank draws its
    iteration duration from the empirical pool, heartbeats in virtual
    time, and either finishes (retiring from the detector) or crashes
    and falls silent.  A monitor polls the detector, emits every verdict
    change as an [Engine.Rank_transition] probe event, and applies the
    configured policy.  All cross-superstep state is a
    {!Checkpoint.state} record, so a run killed after any superstep and
    resumed from its last checkpoint re-executes bit-identically. *)

type policy =
  | Disabled
      (** no recovery: a permanent crash wedges the barrier, and the
          engine liveness watchdog aborts with [Engine.Hung] *)
  | Survivors
      (** Dead ranks leave the membership; later supersteps run
          degraded over the survivors *)
  | Readmit
      (** Dead ranks restart and re-enter after a downtime, paying a
          catch-up cost proportional to the supersteps missed *)
  | Speculative
      (** a Suspect verdict launches a backup execution; the rank
          completes at the first finisher *)

val policy_name : policy -> string

type config = {
  nodes : int;
  iterations : int;  (** supersteps *)
  barrier_cost_ns : float;
  policy : policy;
  crash_rate : float;  (** per-rank per-superstep crash probability *)
  checkpoint_interval : int;  (** supersteps between checkpoints *)
  checkpoint_path : string option;
  seed : int;
}

val default_config : config
(** 64 nodes, 50 supersteps, Survivors policy, no crashes, checkpoint
    every 5 supersteps (when a path is given).  Ranks heartbeat every
    100 us.  A readmitted rank is down for one superstep, and its
    rejoin iteration pays half a pool mean per missed superstep. *)

type crash = { crash_rank : int; crash_superstep : int; crash_restart : bool }

type outcome = {
  policy : string;
  nodes : int;
  supersteps : int;  (** completed; < iterations after a kill *)
  runtime_ns : float;
  straggler_factor : float;  (** mean superstep / mean pool iteration *)
  survivors : int;
  degraded : bool;
  crashes : int;
  restarts : int;
  backups : int;
  deaths : int;
  transitions : int;  (** rank-transition probe events emitted *)
  checkpoints : int;
  resumed_from : int;  (** superstep the run started at; 0 = fresh *)
}

val run :
  pool:float array ->
  ?config:config ->
  ?plan:Ksurf_fault.Plan.t ->
  ?resume_from:string ->
  ?kill_after:int ->
  ?on_engine:(Ksurf_sim.Engine.t -> unit) ->
  unit ->
  outcome
(** Run the supervised BSP synthesis over an empirical iteration pool.

    [plan] injects its [Rank_crash] actions; [config.crash_rate] adds
    seed-deterministic random crashes on top.  [resume_from] loads a
    checkpoint (a missing file starts fresh; a corrupt one fails
    loudly).  [kill_after] stops after that many supersteps of {e this}
    invocation — the test hook for kill-and-resume properties.
    [on_engine] is called on each superstep engine before it runs, so
    sanitizers can attach probes.

    Raises [Engine.Hung] when a superstep wedges (e.g. a permanent
    crash under [Disabled]) — the watchdog converts the infinite wait
    into a diagnostic abort. *)
