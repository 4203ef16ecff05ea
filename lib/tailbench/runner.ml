module Engine = Ksurf_sim.Engine
module Env = Ksurf_env.Env
module Machine = Ksurf_env.Machine
module Partition = Ksurf_env.Partition
module Mailbox = Ksurf_sim.Mailbox
module Prng = Ksurf_util.Prng
module Quantile = Ksurf_stats.Quantile
module Streamstat = Ksurf_stats.Streamstat
module Noise = Ksurf_varbench.Noise

type config = {
  requests : int;
  seed : int;
  units : int;
  unit_cores : int;
  unit_mem_mb : int;
  machine : Machine.t;
}

let default_config =
  {
    requests = 4_000;
    seed = 42;
    units = 4;
    unit_cores = 16;
    unit_mem_mb = 8192;
    machine = Machine.epyc;
  }

(* The leading fraction of latencies discarded, and the worker
   utilisation the client rate aims for. *)
let warmup_fraction = 0.2
let util_target = 0.65

type result = {
  app_name : string;
  kind : string;
  contended : bool;
  count : int;
  mean : float;
  p95 : float;
  p99 : float;
  max : float;
  wall_ns : float;
  degraded : bool;
  survivors : int;
  crashes : int;
  restarts : int;
  timeouts : int;
}

type node = {
  engine : Engine.t;
  env : Env.t;
  mailbox : float Mailbox.t;
  rate : float;
}

let start_node ~app ~kind ~contended ~(config : config) ~noise_corpus ~on_engine
    ~on_env ~served =
  let compiled = Service.compile app in
  let engine = Engine.create ~seed:config.seed () in
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
  (* Unit 0 hosts the application; the rest host noise when contended. *)
  if contended then begin
    let corpus =
      match noise_corpus with
      | Some c -> c
      | None -> (Ksurf_syzgen.Generator.run ()).Ksurf_syzgen.Generator.corpus
    in
    let ranks =
      List.init
        (Env.rank_count env - config.unit_cores)
        (fun i -> config.unit_cores + i)
    in
    ignore (Noise.start ~env ~corpus ~ranks () : Ksurf_varbench.Retry.counters)
  end;
  (* The client rate is derived from the native service estimate, so it
     is identical across environments. *)
  let mean_service = Service.estimate_native_service compiled in
  let node =
    {
      engine;
      env;
      mailbox = Mailbox.create ~engine ~name:(app.Apps.name ^ ".reqs");
      rate = util_target *. float_of_int config.unit_cores /. mean_service;
    }
  in
  for rank = 0 to config.unit_cores - 1 do
    let rng = Prng.split (Engine.rng engine) (Printf.sprintf "worker-%d" rank) in
    Engine.spawn engine (fun () ->
        let rec serve () =
          let arrival = Mailbox.recv node.mailbox in
          (* Residual hardware interference from the co-runners.  The
             paper's VM setup allocates each VM's memory from a single
             memory channel, so cross-VM bandwidth interference is lower
             than between containers sharing all channels. *)
          let hw_dilation =
            if not contended then 1.0
            else
              match kind with
              | Env.Kvm _ -> 1.005 +. Prng.float rng 0.01
              | Env.Native | Env.Multikernel | Env.Docker -> 1.01 +. Prng.float rng 0.03
          in
          Service.handle compiled ~env ~rank ~rng ~hw_dilation ();
          served node arrival;
          serve ()
        in
        serve ())
  done;
  node

let run_single_node ~app ~kind ~contended ?(config = default_config)
    ?noise_corpus ?(on_engine = fun (_ : Engine.t) -> ())
    ?(on_env = fun (_ : Env.t) -> ()) () =
  (* Seed-scale runs keep every latency in the exact buffer, so the
     retrospective warmup skip below reproduces the historical
     array-based summary byte-for-byte.  Past the cap the run switches
     to constant-memory streaming and the warmup is skipped online
     instead: the first [requests x warmup_fraction] recorded latencies
     are discarded as they arrive. *)
  (* [>=], not [>]: at exactly [exact_cap] requests a run fills the
     buffer and the cap'th add would spill it, losing the exact path
     while the online warmup skip is disarmed.  Whenever a spill is
     possible, stream from the start. *)
  let streaming_mode = config.requests >= Streamstat.default_exact_cap in
  let latencies =
    if streaming_mode then Streamstat.streaming () else Streamstat.create ()
  in
  let warmup_skip =
    if streaming_mode then
      int_of_float (float_of_int config.requests *. warmup_fraction)
    else 0
  in
  let completed = ref 0 in
  let served node arrival =
    let latency = Engine.now node.engine -. arrival in
    incr completed;
    if !completed > warmup_skip then Streamstat.add latencies latency
  in
  let node =
    start_node ~app ~kind ~contended ~config ~noise_corpus ~on_engine ~on_env ~served
  in
  let engine = node.engine in
  (* Open-loop client at the node's fixed rate: environments that
     inflate service times absorb the extra load as queueing. *)
  let client_rng = Prng.split (Engine.rng engine) "client" in
  Engine.spawn engine (fun () ->
      for _ = 1 to config.requests do
        let gap = -.Float.log (1.0 -. Prng.uniform client_rng) /. node.rate in
        Engine.delay gap;
        Mailbox.send node.mailbox (Engine.now engine)
      done);
  let t0 = Engine.now engine in
  Engine.run ~stop:(fun () -> !completed >= config.requests) engine;
  let wall_ns = Engine.now engine -. t0 in
  let count, mean, p95, p99, max =
    match Streamstat.exact latencies with
    | Some all ->
        let skip =
          int_of_float (float_of_int (Array.length all) *. warmup_fraction)
        in
        let measured = Array.sub all skip (Array.length all - skip) in
        if Array.length measured = 0 then (0, 0.0, 0.0, 0.0, 0.0)
        else
          let s = Quantile.summarize measured in
          ( s.Quantile.count,
            s.Quantile.mean,
            s.Quantile.p95,
            s.Quantile.p99,
            s.Quantile.max )
    | None ->
        let n = Streamstat.count latencies in
        if n = 0 then (0, 0.0, 0.0, 0.0, 0.0)
        else
          ( n,
            Streamstat.mean latencies,
            Streamstat.p95 latencies,
            Streamstat.p99 latencies,
            Streamstat.max_value latencies )
  in
  {
    app_name = app.Apps.name;
    kind = Env.kind_name kind;
    contended;
    count;
    mean;
    p95;
    p99;
    max;
    wall_ns;
    (* No worker leaves a run and no request times out, so these five
       read "none lost". *)
    degraded = false;
    survivors = config.unit_cores;
    crashes = 0;
    restarts = 0;
    timeouts = 0;
  }

let percent_increase ~isolated ~contended =
  100.0 *. (contended.p99 -. isolated.p99) /. isolated.p99
