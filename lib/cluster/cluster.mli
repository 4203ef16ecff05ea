(** The 64-node BSP experiment (§6.3 / Figure 4).

    The paper's harness deploys each tailbench client/server pair on
    every node of a 64-node Chameleon partition; each node issues only
    local requests, runs a fixed number of requests per iteration, and
    global barrier synchronisation joins the nodes between iterations —
    the timing structure of a bulk-synchronous-parallel application.

    Because no inter-node traffic is on the critical path, nodes are
    statistically independent given the barrier.  We exploit that: a
    small number of nodes are simulated in full (kernel model, noise
    co-runners and all), their per-iteration durations pooled, and the
    64-node runtime synthesised as the sum over iterations of the
    maximum of 64 draws from the pooled empirical distribution plus the
    barrier cost — the exact order statistic the paper's straggler
    effect rests on.  This is the documented substitution for physical
    nodes (DESIGN.md). *)

type config = {
  nodes_simulated : int;  (** fully simulated nodes feeding the pool *)
  iterations : int;  (** barrier-synchronised iterations (paper: 50) *)
  sim_iterations_per_node : int;  (** iteration samples gathered per node *)
  warmup_iterations : int;  (** leading samples discarded per node *)
  requests_per_iteration : int;
  units : int;
  unit_cores : int;
  unit_mem_mb : int;
  seed : int;
}

val default_config : config
(** 3 simulated nodes, 50 iterations from 50 samples/node (2 warm-up),
    25 requests/iteration, 4 x 12-core units. *)

val nodes_total : int
(** 64, as in the paper: the nodes the synthesis draws each iteration
    from.  Every simulated node is a Chameleon Haswell node. *)

type result = {
  app_name : string;
  kind : string;
  contended : bool;
  runtime_ns : float;  (** synthesised 64-node runtime, Figure 4(a)/(b) *)
  node_mean_iter_ns : float;  (** mean single-node iteration *)
  node_p99_iter_ns : float;
  straggler_factor : float;
      (** mean(max over nodes) / mean(single node): BSP amplification *)
  iteration_samples : int;
}

val run :
  app:Ksurf_tailbench.Apps.t ->
  kind:Ksurf_env.Env.kind ->
  contended:bool ->
  ?config:config ->
  ?noise_corpus:Ksurf_syzgen.Corpus.t ->
  ?on_engine:(Ksurf_sim.Engine.t -> unit) ->
  ?on_env:(Ksurf_env.Env.t -> unit) ->
  ?par:Ksurf_par.Pool.t ->
  unit ->
  result
(** One cell of Figure 4.  [on_engine] is called on each node
    simulation's engine right after creation — the hook sanitizers use
    to attach probes.  [on_env] is called on each node deployment so
    fault plans can be armed.  Deterministic for a given seed.  [par] fans
    the node simulations across a worker pool; each node is a
    self-contained engine with its own seed, and results merge in node
    order, so the result is bit-identical to the sequential one.  Do
    not pass [par] together with non-thread-safe [on_engine]/[on_env]
    observers. *)

val relative_loss : isolated:result -> contended:result -> float
(** Figure 4(c): percent runtime increase from isolated to contended. *)
