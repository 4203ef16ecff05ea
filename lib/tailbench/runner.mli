(** Single-node tail-latency experiments (§6.2 / Figure 3).

    Layout mirrors the paper: four isolation units of 16 cores and 8 GB
    on the EPYC machine.  Unit 0 runs one tailbench application with an
    open-loop client over loopback; units 1–3 run a 48-rank varbench
    noise workload when the run is {e contended}.  The client rate is
    set from the app's {e native} service estimate for 65%% worker
    utilisation and kept identical across environments, so environments
    that inflate service times absorb the extra load as queueing — the
    paper's fixed-rate configuration. *)

type config = {
  requests : int;
      (** completed requests; the first 20%% of latencies are warm-up
          and discarded *)
  seed : int;
  units : int;
  unit_cores : int;
  unit_mem_mb : int;
  machine : Ksurf_env.Machine.t;
}

val default_config : config
(** 4000 requests, seed 42, 4 x (16 cores, 8 GB) on
    {!Ksurf_env.Machine.epyc}. *)

type result = {
  app_name : string;
  kind : string;
  contended : bool;
  count : int;  (** measured requests *)
  mean : float;
  p95 : float;
  p99 : float;
  max : float;
  wall_ns : float;  (** virtual time span of the measured phase *)
  degraded : bool;  (** always [false]: no worker leaves a run *)
  survivors : int;  (** always [config.unit_cores] *)
  crashes : int;  (** always 0 *)
  restarts : int;  (** always 0 *)
  timeouts : int;  (** always 0 *)
}

(** {2 One tailbench node}

    The node Fig 3 measures and Fig 4 replicates on every BSP node: the
    app's workers in unit 0, behind one request mailbox. *)

type node = {
  engine : Ksurf_sim.Engine.t;
  env : Ksurf_env.Env.t;
  mailbox : float Ksurf_sim.Mailbox.t;  (** request arrival times *)
  rate : float;  (** the client's request rate, per ns *)
}

val start_node :
  app:Apps.t ->
  kind:Ksurf_env.Env.kind ->
  contended:bool ->
  config:config ->
  noise_corpus:Ksurf_syzgen.Corpus.t option ->
  on_engine:(Ksurf_sim.Engine.t -> unit) ->
  on_env:(Ksurf_env.Env.t -> unit) ->
  served:(node -> float -> unit) ->
  node
(** Build the node's engine (then [on_engine]), deploy [config]'s
    partition (then [on_env]), start the noise ranks on units 1 and up
    when [contended] (generating a corpus if none is given), fix the
    client rate for 65%% worker utilisation at the app's native service
    estimate, and spawn one worker per unit-0
    core.  A worker serves each request it receives and then calls
    [served node arrival].  [config.requests] is not read: the caller
    owns the client. *)

val run_single_node :
  app:Apps.t ->
  kind:Ksurf_env.Env.kind ->
  contended:bool ->
  ?config:config ->
  ?noise_corpus:Ksurf_syzgen.Corpus.t ->
  ?on_engine:(Ksurf_sim.Engine.t -> unit) ->
  ?on_env:(Ksurf_env.Env.t -> unit) ->
  unit ->
  result
(** One cell of Figure 3.  [noise_corpus] defaults to a freshly
    generated corpus (pass one in to share across cells).  [on_engine]
    is called on the freshly created engine before anything is spawned —
    the hook sanitizers use to attach probes — and [on_env] on the
    freshly deployed environment — the hook fault injection uses to arm
    a plan.  Deterministic for a given seed.  The run stops once
    [config.requests] requests are served. *)

val percent_increase : isolated:result -> contended:result -> float
(** Figure 3(c): p99 increase from the isolated to the contended run,
    in percent. *)
