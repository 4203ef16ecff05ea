module Engine = Ksurf_sim.Engine
module Env = Ksurf_env.Env
module Machine = Ksurf_env.Machine
module Partition = Ksurf_env.Partition
module Mailbox = Ksurf_sim.Mailbox
module Prng = Ksurf_util.Prng
module Quantile = Ksurf_stats.Quantile
module Noise = Ksurf_varbench.Noise
module Apps = Ksurf_tailbench.Apps
module Service = Ksurf_tailbench.Service

type config = {
  nodes_total : int;
  nodes_simulated : int;
  iterations : int;
  sim_iterations_per_node : int;
  warmup_iterations : int;
  requests_per_iteration : int;
  util_target : float;
  units : int;
  unit_cores : int;
  unit_mem_mb : int;
  machine : Machine.t;
  seed : int;
}

let default_config =
  {
    nodes_total = 64;
    nodes_simulated = 3;
    iterations = 50;
    sim_iterations_per_node = 50;
    warmup_iterations = 2;
    requests_per_iteration = 25;
    util_target = 0.65;
    units = 4;
    unit_cores = 12;
    unit_mem_mb = 16384;
    machine = Machine.haswell_node;
    seed = 42;
  }

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

(* Fully simulate one node: the app in unit 0, noise in units 1-3 when
   contended, iteration = a fixed burst of requests followed by a local
   quiescent point.  Returns per-iteration durations (warm-up dropped). *)
let simulate_node ~app ~kind ~contended ~config ~noise_corpus ~node_seed
    ~on_engine ~on_env =
  let compiled = Service.compile app in
  let engine = Engine.create ~seed:node_seed () in
  (* Observer hook: lets sanitizers attach probes before anything runs. *)
  on_engine engine;
  let partition =
    Partition.equal_split ~units:config.units
      ~total_cores:(config.units * config.unit_cores)
      ~total_mem_mb:(config.units * config.unit_mem_mb)
  in
  let env = Env.deploy ~engine ~machine:config.machine kind partition in
  (* Deployment hook: lets callers arm a fault plan on the fresh env. *)
  on_env env;
  let workers = List.init config.unit_cores (fun i -> i) in
  if contended then begin
    let noise_ranks =
      List.init
        (Env.rank_count env - config.unit_cores)
        (fun i -> config.unit_cores + i)
    in
    ignore (Noise.start ~env ~corpus:noise_corpus ~ranks:noise_ranks () : Noise.handle)
  end;
  let mean_service = Service.estimate_native_service compiled in
  let rate =
    config.util_target *. float_of_int config.unit_cores /. mean_service
  in
  let mailbox = Mailbox.create ~engine ~name:(app.Apps.name ^ ".reqs") in
  let completed_in_iter = ref 0 in
  let iteration_waiter : (unit -> unit) option ref = ref None in
  (* Robustness accounting (krecov): a fault plan armed via [on_env]
     may crash a worker rank.  A crashed worker requeues its in-flight
     request and either restarts after the plan's downtime or exits for
     good; a permanent loss marks the node so iteration samples gathered
     after the crash — timed with fewer serving cores — are dropped
     rather than silently distorting the BSP pool. *)
  let live = ref (List.length workers) in
  let crashes = ref 0 in
  let restarts = ref 0 in
  let lost_for_good = ref false in
  List.iter
    (fun rank ->
      let rng =
        Prng.split (Engine.rng engine) (Printf.sprintf "worker-%d" rank)
      in
      Engine.spawn engine (fun () ->
          let crash_at = Env.crash_time_of_rank env ~rank in
          let restart_delay = Env.restart_delay_of_rank env ~rank in
          let crash_handled = ref false in
          let rec serve () =
            let arrival = Mailbox.recv mailbox in
            match crash_at with
            | Some at when (not !crash_handled) && Engine.now engine >= at -> (
                crash_handled := true;
                incr crashes;
                if Engine.observed engine then
                  Engine.emit engine
                    (Engine.Injected
                       {
                         now = Engine.now engine;
                         pid = Engine.current_pid engine;
                         fault = "rank-crash";
                         magnitude = float_of_int rank;
                       });
                (* The in-flight request survives the crash: back to the
                   queue for whoever is still serving. *)
                Mailbox.send mailbox arrival;
                match restart_delay with
                | Some downtime ->
                    Engine.delay downtime;
                    incr restarts;
                    serve ()
                | None ->
                    decr live;
                    lost_for_good := true)
            | _ ->
                let hw_dilation =
                  if not contended then 1.0
                  else
                    match kind with
                    | Env.Kvm _ -> 1.005 +. Prng.float rng 0.01
                    | Env.Native | Env.Multikernel | Env.Docker -> 1.01 +. Prng.float rng 0.03
                in
                Service.handle compiled ~env ~rank ~rng ~hw_dilation ();
                incr completed_in_iter;
                (if !completed_in_iter >= config.requests_per_iteration then
                   match !iteration_waiter with
                   | Some wake ->
                       iteration_waiter := None;
                       wake ()
                   | None -> ());
                serve ()
          in
          serve ()))
    workers;
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
          let gap = -.Float.log (1.0 -. Prng.uniform client_rng) /. rate in
          Engine.delay gap;
          Mailbox.send mailbox (Engine.now engine)
        done;
        (* Wait until the whole burst has been served.  With every
           worker permanently crashed there is no one left to wake us:
           give up on the remaining iterations instead of parking
           forever. *)
        if !completed_in_iter < config.requests_per_iteration && !live > 0 then
          Engine.suspend (fun wake -> iteration_waiter := Some wake);
        if iter >= config.warmup_iterations then
          if !lost_for_good then incr dropped
          else durations := (Engine.now engine -. start) :: !durations
      done;
      finished := true);
  Engine.run ~stop:(fun () -> !finished || (!live = 0 && !lost_for_good)) engine;
  {
    durations = Array.of_list (List.rev !durations);
    node_crashes = !crashes;
    node_restarts = !restarts;
    node_dropped = !dropped;
  }

let default_noise_corpus ~contended noise_corpus =
  match noise_corpus with
  | Some c -> c
  | None ->
      if contended then
        (Ksurf_syzgen.Generator.run ()).Ksurf_syzgen.Generator.corpus
      else
        (* Unused, but keep the type simple: a minimal corpus. *)
        (Ksurf_syzgen.Generator.run
           ~params:
             {
               Ksurf_syzgen.Generator.default_params with
               Ksurf_syzgen.Generator.target_programs = 1;
             }
           ())
          .Ksurf_syzgen.Generator.corpus

(* Each node simulation is self-contained (own engine, own PRNG stream
   derived from [seed + node * 7919]), so the replica pool can fan nodes
   across domains; [Pool.map] returns results in node order, keeping the
   pooled durations bit-identical to the sequential run.  Callers that
   attach non-thread-safe observers ([on_engine]/[on_env], e.g. the
   sanitizers' probes) must not pass [par]. *)
let simulate_nodes ~par ~app ~kind ~contended ~config ~noise_corpus ~on_engine
    ~on_env =
  if config.nodes_simulated < 1 then invalid_arg "Cluster: need >= 1 node";
  let noise_corpus = default_noise_corpus ~contended noise_corpus in
  let cell node =
    simulate_node ~app ~kind ~contended ~config ~noise_corpus
      ~node_seed:(config.seed + (node * 7919))
      ~on_engine ~on_env
  in
  let nodes = List.init config.nodes_simulated Fun.id in
  match par with
  | Some pool -> Ksurf_par.Pool.map ~pool cell nodes
  | None -> List.map cell nodes

let barrier_cost_for ~kind ~nodes_total =
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
  let barrier_cost = barrier_cost_for ~kind ~nodes_total:config.nodes_total in
  let mean arr = Array.fold_left ( +. ) 0.0 arr /. float_of_int (Array.length arr) in
  let sorted = Quantile.sorted_copy pool in
  let n = float_of_int (Array.length sorted) in
  let power frac = Float.pow frac (float_of_int config.nodes_total) in
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
