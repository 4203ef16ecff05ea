(** The varbench harness (§3.2 of the paper).

    Deploys the syzgen corpus across every rank of an environment with
    fine-grained concurrency control: a (simulated) MPI barrier before
    every program ensures that the same sequence of system calls starts
    on all cores at the same virtual time, maximising concurrent
    pressure on shared kernel structures.  Synchronisation is user-level
    (virtual network), so the same harness runs unmodified over native,
    VM and container deployments. *)

type params = {
  iterations : int;  (** measured repetitions of the whole corpus *)
  warmup_iterations : int;  (** discarded leading repetitions *)
}

type site = {
  program : int;  (** program id within the corpus *)
  index : int;  (** call position within the program *)
  syscall : Ksurf_syscalls.Spec.t;
  stats : Ksurf_stats.Streamstat.t;
      (** one latency per rank x iteration — exact at seed scale,
          constant-size streaming past
          {!Ksurf_stats.Streamstat.default_exact_cap} *)
}

type result = {
  sites : site array;
  overall : Ksurf_stats.Streamstat.t;
      (** all measured latencies pooled in arrival order, pure
          streaming (never materialized) — the fallback source for
          corpus-wide quantiles once any site spills its exact buffer *)
  ranks : int;
  iterations : int;
  wall_time_ns : float;  (** virtual time the measured phase spanned *)
  degraded : bool;  (** some ranks crashed or were dropped *)
  survivors : int;  (** ranks still in the barrier protocol at the end *)
  dropped_ranks : int list;  (** in drop order *)
  transient_retries : int;  (** injected EAGAIN/EINTR faults retried *)
  abandoned_calls : int;  (** calls given up on after max retries *)
  denied_calls : int;
      (** calls rejected with ENOSYS by an [Enforce]-mode specialization
          policy (kspec); permanent, never retried, never sampled *)
}

val total_invocations : result -> int

val run :
  env:Ksurf_env.Env.t ->
  corpus:Ksurf_syzgen.Corpus.t ->
  ?params:params ->
  ?straggler_timeout_ns:float ->
  unit ->
  result
(** Execute the corpus on every rank of [env] ([params] defaults to 20
    iterations after 2 warm-up ones).  Each call site collects
    up to [ranks x iterations] latency samples.  Deterministic given the
    environment's engine seed.

    Robustness (all inert without an armed fault plan): transiently
    failed calls retry with exponential backoff and recorded latencies
    include the retry time; a rank whose fault plan schedules a crash
    leaves the barrier ({!Ksurf_sim.Barrier.depart}) and the survivors
    continue; with [straggler_timeout_ns] set, a watchdog also drops any
    rank that makes no progress for that long while not waiting at the
    barrier.  A run that lost ranks is stamped [degraded] with the
    survivor count. *)
