(** Varbench as antagonist (§6.2): system-call "noise" generators that
    stress the kernel while another workload is measured.

    Noise ranks loop over the corpus continuously (no barriers — the
    goal is sustained pressure, not synchronised measurement) until the
    caller stops draining the engine.

    Noise streams are fault-aware: calls go through {!Retry.call}, so an
    injected EAGAIN storm slows the antagonist down instead of crashing
    it. *)

val start :
  env:Ksurf_env.Env.t ->
  corpus:Ksurf_syzgen.Corpus.t ->
  ranks:int list ->
  unit ->
  Retry.counters
(** Spawn an infinite noise loop on each listed rank of [env], and
    return the stream's own counters, which start at zero.  A rank
    issues its next program as soon as the last one ends.  Run the
    engine with [~until] or [~stop] to bound
    the simulation. *)
