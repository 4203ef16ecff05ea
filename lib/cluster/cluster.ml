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
}

(* Fully simulate one node: Fig 3's tailbench node (the app in unit 0,
   noise in units 1-3 when contended), driven in iterations of a fixed
   burst of requests followed by a local quiescent point.  Returns
   per-iteration durations (warm-up dropped), in order. *)
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
  let durations = ref [] in
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
        (* Wait until the whole burst has been served. *)
        if !completed_in_iter < config.requests_per_iteration then
          Engine.suspend (fun wake -> iteration_waiter := Some wake);
        if iter >= config.warmup_iterations then
          durations := (Engine.now engine -. start) :: !durations
      done;
      finished := true);
  Engine.run ~stop:(fun () -> !finished) engine;
  Array.of_list (List.rev !durations)

(* Each node simulation is self-contained: its own engine and its own
   PRNG stream derived from [seed + node * 7919]. *)
let simulate_nodes ~app ~kind ~contended ~config ~noise_corpus ~on_engine
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
  List.init config.nodes_simulated cell

(* The per-iteration global barrier cost the synthesis charges:
   log2([nodes_total]) tree depth times a per-party cost that depends on
   the transport (virtio for KVM). *)
let barrier_cost_for ~kind =
  let per_party =
    match kind with
    | Env.Kvm virt -> 1_500.0 +. virt.Ksurf_virt.Virt_config.virtio_net_per_msg
    | Env.Native | Env.Multikernel | Env.Docker -> 1_800.0
  in
  per_party
  *. Float.ceil (Float.log (float_of_int nodes_total) /. Float.log 2.0)

let run ~app ~kind ~contended ?(config = default_config) ?noise_corpus
    ?(on_engine = fun (_ : Engine.t) -> ())
    ?(on_env = fun (_ : Env.t) -> ()) () =
  let nodes =
    simulate_nodes ~app ~kind ~contended ~config ~noise_corpus ~on_engine
      ~on_env
  in
  let pool = Array.concat nodes in
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
  }

let relative_loss ~isolated ~contended =
  100.0 *. (contended.runtime_ns -. isolated.runtime_ns) /. isolated.runtime_ns
