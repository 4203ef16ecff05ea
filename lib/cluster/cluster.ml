module Engine = Ksurf_sim.Engine
module Env = Ksurf_env.Env
module Machine = Ksurf_env.Machine
module Mailbox = Ksurf_sim.Mailbox
module Prng = Ksurf_util.Prng
module Quantile = Ksurf_stats.Quantile
module Apps = Ksurf_tailbench.Apps
module Runner = Ksurf_tailbench.Runner

type config = {
  nodes_simulated : int;
  iterations : int;
  sim_iterations_per_node : int;
  warmup_iterations : int;
  requests_per_iteration : int;
  units : int;
  unit_cores : int;
  unit_mem_mb : int;
  seed : int;
}

let default_config =
  {
    nodes_simulated = 3;
    iterations = 50;
    sim_iterations_per_node = 50;
    warmup_iterations = 2;
    requests_per_iteration = 25;
    units = 4;
    unit_cores = 12;
    unit_mem_mb = 16384;
    seed = 42;
  }

let nodes_total = 64

type result = {
  app_name : string;
  kind : string;
  contended : bool;
  runtime_ns : float;
  node_mean_iter_ns : float;
  node_p99_iter_ns : float;
  straggler_factor : float;
  iteration_samples : int;
  degraded : bool;
  crashes : int;
  restarts : int;
  samples_dropped : int;
}

type node_outcome = {
  durations : float array;
  node_crashes : int;
  node_restarts : int;
  node_dropped : int;  (* iteration samples discarded after permanent loss *)
}

(* Fully simulate one node: Fig 3's tailbench node (the app in unit 0,
   noise in units 1-3 when contended), driven in iterations of a fixed
   burst of requests followed by a local quiescent point.  Returns
   per-iteration durations (warm-up dropped). *)
let simulate_node ~app ~kind ~contended ~config ~noise_corpus ~node_seed
    ~on_engine ~on_env =
  let completed_in_iter = ref 0 in
  let iteration_waiter : (unit -> unit) option ref = ref None in
  let served _ _ =
    incr completed_in_iter;
    if !completed_in_iter >= config.requests_per_iteration then
      match !iteration_waiter with
      | Some wake ->
          iteration_waiter := None;
          wake ()
      | None -> ()
  in
  let node =
    Runner.start_node ~app ~kind ~contended
      ~config:
        {
          Runner.default_config with
          Runner.seed = node_seed;
          units = config.units;
          unit_cores = config.unit_cores;
          unit_mem_mb = config.unit_mem_mb;
          machine = Machine.haswell_node;
        }
      ~noise_corpus ~on_engine ~on_env ~served
  in
  let engine = node.Runner.engine in
  (* A permanent worker loss (krecov) marks the node, so iteration
     samples gathered after it — timed with fewer serving cores — are
     dropped rather than silently distorting the BSP pool. *)
  let lost_for_good () = node.Runner.live < node.Runner.workers in
  let durations = ref [] in
  let dropped = ref 0 in
  let total_iters = config.warmup_iterations + config.sim_iterations_per_node in
  let finished = ref false in
  let client_rng = Prng.split (Engine.rng engine) "client" in
  Engine.spawn engine (fun () ->
      for iter = 0 to total_iters - 1 do
        let start = Engine.now engine in
        completed_in_iter := 0;
        for _ = 1 to config.requests_per_iteration do
          let gap = -.Float.log (1.0 -. Prng.uniform client_rng) /. node.Runner.rate in
          Engine.delay gap;
          Mailbox.send node.Runner.mailbox (Engine.now engine)
        done;
        (* Wait until the whole burst has been served.  With every
           worker permanently crashed there is no one left to wake us:
           give up on the remaining iterations instead of parking
           forever. *)
        if !completed_in_iter < config.requests_per_iteration && node.Runner.live > 0
        then Engine.suspend (fun wake -> iteration_waiter := Some wake);
        if iter >= config.warmup_iterations then
          if lost_for_good () then incr dropped
          else durations := (Engine.now engine -. start) :: !durations
      done;
      finished := true);
  Engine.run
    ~stop:(fun () -> !finished || (node.Runner.live = 0 && lost_for_good ()))
    engine;
  {
    durations = Array.of_list (List.rev !durations);
    node_crashes = node.Runner.crashes;
    node_restarts = node.Runner.restarts;
    node_dropped = !dropped;
  }

(* Each node simulation is self-contained (own engine, own PRNG stream
   derived from [seed + node * 7919]), so the replica pool can fan nodes
   across domains; [Pool.map] returns results in node order, keeping the
   pooled durations bit-identical to the sequential run.  Callers that
   attach non-thread-safe observers ([on_engine]/[on_env], e.g. the
   sanitizers' probes) must not pass [par]. *)
let simulate_nodes ~par ~app ~kind ~contended ~config ~noise_corpus ~on_engine
    ~on_env =
  if config.nodes_simulated < 1 then invalid_arg "Cluster: need >= 1 node";
  (* Generated once and shared by every node; an isolated node needs
     none. *)
  let noise_corpus =
    match noise_corpus with
    | None when contended ->
        Some (Ksurf_syzgen.Generator.run ()).Ksurf_syzgen.Generator.corpus
    | c -> c
  in
  let cell node =
    simulate_node ~app ~kind ~contended ~config ~noise_corpus
      ~node_seed:(config.seed + (node * 7919))
      ~on_engine ~on_env
  in
  let nodes = List.init config.nodes_simulated Fun.id in
  match par with
  | Some pool -> Ksurf_par.Pool.map ~pool cell nodes
  | None -> List.map cell nodes

let barrier_cost_for ~kind =
  let per_party =
    match kind with
    | Env.Kvm virt -> 1_500.0 +. virt.Ksurf_virt.Virt_config.virtio_net_per_msg
    | Env.Native | Env.Multikernel | Env.Docker -> 1_800.0
  in
  per_party
  *. Float.ceil (Float.log (float_of_int nodes_total) /. Float.log 2.0)

let durations nodes = Array.concat (List.map (fun n -> n.durations) nodes)

(* The empirical iteration pool alone — for callers (the recovery study)
   that sweep many supervised syntheses over one set of simulated
   nodes. *)
let pool ~app ~kind ~contended ?(config = default_config) ?noise_corpus
    ?(on_engine = fun (_ : Engine.t) -> ())
    ?(on_env = fun (_ : Env.t) -> ()) ?par () =
  durations
    (simulate_nodes ~par ~app ~kind ~contended ~config ~noise_corpus ~on_engine
       ~on_env)

let run ~app ~kind ~contended ?(config = default_config) ?noise_corpus
    ?(on_engine = fun (_ : Engine.t) -> ())
    ?(on_env = fun (_ : Env.t) -> ()) ?par () =
  let nodes =
    simulate_nodes ~par ~app ~kind ~contended ~config ~noise_corpus ~on_engine
      ~on_env
  in
  let pool = durations nodes in
  let sum f = List.fold_left (fun acc n -> acc + f n) 0 nodes in
  let samples_dropped = sum (fun n -> n.node_dropped) in
  if Array.length pool = 0 then failwith "Cluster.run: no iteration samples";
  (* Synthesise the BSP runtime: nodes are independent given the
     barrier, so each global iteration lasts as long as the slowest of
     [nodes_total] draws from the empirical iteration distribution.  We
     use the exact expectation of that maximum under the empirical CDF,
     E[max] = sum_k x_(k) * [ (k/n)^N - ((k-1)/n)^N ], rather than a
     Monte-Carlo resample: the estimate is then deterministic in the
     pool, so iso-vs-contended comparisons are free of resampling
     noise. *)
  let barrier_cost = barrier_cost_for ~kind in
  let mean arr = Array.fold_left ( +. ) 0.0 arr /. float_of_int (Array.length arr) in
  let sorted = Quantile.sorted_copy pool in
  let n = float_of_int (Array.length sorted) in
  let power frac = Float.pow frac (float_of_int nodes_total) in
  let expected_max = ref 0.0 in
  Array.iteri
    (fun i x ->
      let k = float_of_int (i + 1) in
      expected_max := !expected_max +. (x *. (power (k /. n) -. power ((k -. 1.0) /. n))))
    sorted;
  {
    app_name = app.Apps.name;
    kind = Env.kind_name kind;
    contended;
    runtime_ns = float_of_int config.iterations *. (!expected_max +. barrier_cost);
    node_mean_iter_ns = mean pool;
    node_p99_iter_ns = Quantile.p99 pool;
    straggler_factor = !expected_max /. mean pool;
    iteration_samples = Array.length pool;
    degraded = samples_dropped > 0;
    crashes = sum (fun n -> n.node_crashes);
    restarts = sum (fun n -> n.node_restarts);
    samples_dropped;
  }

let relative_loss ~isolated ~contended =
  100.0 *. (contended.runtime_ns -. isolated.runtime_ns) /. isolated.runtime_ns
