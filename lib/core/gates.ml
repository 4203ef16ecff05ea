(* The gate list: small, fast configurations of every workload family,
   each run twice under the sanitizers and then checked for its own
   FAIL conditions, plus a deliberately broken [Inversion] gate that
   self-tests the lockdep analyzer.

   Every gate calls [on_engine] on each engine it wants sanitized
   *before* running it, so the runner can attach probes to the full
   event stream. *)

module Engine = Ksurf_sim.Engine
module Lock = Ksurf_sim.Lock
module Env = Ksurf_env.Env
module Partition = Ksurf_env.Partition
module Generator = Ksurf_syzgen.Generator
module Harness = Ksurf_varbench.Harness
module Apps = Ksurf_tailbench.Apps
module Runner = Ksurf_tailbench.Runner
module Cluster = Ksurf_cluster.Cluster
module Kfault = Ksurf_fault.Kfault
module Journal = Ksurf_recov.Journal
module Fleet = Ksurf_tenant.Fleet
module Profile = Ksurf_spec.Profile
module Specializer = Ksurf_spec.Specializer
module Sanitizer = Ksurf_analysis.Sanitizer
module Determinism = Ksurf_analysis.Determinism
module Finding = Ksurf_analysis.Finding

module type S = sig
  type result

  val name : string
  val run : seed:int -> on_engine:(Engine.t -> unit) -> result
  val check : result -> string list
end

type t = (module S)

let name (module G : S) = G.name

(* A gate whose only checks are the sanitizers'. *)
let unchecked name run : t =
  (module struct
    type result = unit

    let name = name
    let run = run
    let check () = []
  end)

(* [fail_if cond fmt ...] is [Some message] when [cond] holds: one FAIL
   condition of a gate. *)
let fail_if cond fmt =
  Format.kasprintf (fun m -> if cond then Some m else None) fmt

let failures = List.filter_map Fun.id

let small_corpus ~seed =
  (Generator.run
     ~params:{ Generator.default_params with Generator.seed; target_programs = 8 }
     ())
    .Generator.corpus

let app () =
  match Apps.by_name "silo" with Some a -> a | None -> List.hd Apps.all

let native_pair ~engine =
  Env.deploy ~engine Env.Native
    (Partition.equal_split ~units:2 ~total_cores:8 ~total_mem_mb:8192)

let small_varbench ~env ~corpus iterations =
  Harness.run ~env ~corpus ~params:{ Harness.iterations; warmup_iterations = 1 } ()

let run_varbench ~seed ~on_engine =
  let engine = Engine.create ~seed () in
  on_engine engine;
  ignore (small_varbench ~env:(native_pair ~engine) ~corpus:(small_corpus ~seed) 4)

let tailbench_config ~seed =
  {
    Runner.default_config with
    Runner.requests = 250;
    seed;
    units = 2;
    unit_cores = 4;
    unit_mem_mb = 2048;
  }

let run_tailbench ~seed ~on_engine =
  ignore
    (Runner.run_single_node ~app:(app ()) ~kind:Env.Native ~contended:false
       ~config:(tailbench_config ~seed) ~on_engine ())

let cluster_config ~seed =
  {
    Cluster.default_config with
    Cluster.nodes_simulated = 1;
    sim_iterations_per_node = 6;
    warmup_iterations = 1;
    requests_per_iteration = 10;
    units = 2;
    unit_cores = 4;
    unit_mem_mb = 2048;
    seed;
  }

let run_bsp ~seed ~on_engine =
  ignore
    (Cluster.run ~app:(app ()) ~kind:Env.Native ~contended:false
       ~config:(cluster_config ~seed) ~on_engine ())

(* AB in one process, BA in another, far enough apart in virtual time
   that the run completes — the cycle is only *potential*, which is
   exactly what lockdep exists to catch. *)
module Inversion = struct
  type result = unit

  let name = "inversion"

  let run ~seed ~on_engine =
    let engine = Engine.create ~seed () in
    on_engine engine;
    let a = Lock.create ~engine ~name:"inv.alpha" in
    let b = Lock.create ~engine ~name:"inv.beta" in
    Engine.spawn engine (fun () ->
        Lock.acquire a;
        Engine.delay 5.0;
        Lock.acquire b;
        Engine.delay 1.0;
        Lock.release b;
        Lock.release a);
    Engine.spawn ~at:20.0 engine (fun () ->
        Lock.acquire b;
        Engine.delay 5.0;
        Lock.acquire a;
        Engine.delay 1.0;
        Lock.release a;
        Lock.release b);
    Engine.run engine

  let check () = []
end

(* Faulted variants: the same workloads under the "mixed" kfault plan,
   which exercises every injection mechanism.  A gate's result is the
   plan's injection count, and it fails at 0: a faulted run that
   injected nothing checked nothing. *)
let faulted name run : t =
  (module struct
    type result = int

    let name = name

    let run ~seed ~on_engine =
      let plan = Option.get (Ksurf_fault.Plan.preset "mixed") in
      let kf = ref None in
      let on_env env = kf := Some (Kfault.arm ~env ~plan ~seed ()) in
      run ~seed ~on_engine ~on_env;
      let kf = Option.get !kf in
      Kfault.disarm kf;
      Kfault.total_injections kf

    let check injections =
      failures [ fail_if (injections = 0) "the fault plan injected nothing" ]
  end)

let run_faulted_varbench ~seed ~on_engine ~on_env =
  let engine = Engine.create ~seed () in
  on_engine engine;
  let env = native_pair ~engine in
  on_env env;
  ignore (small_varbench ~env ~corpus:(small_corpus ~seed) 4)

let run_faulted_tailbench ~seed ~on_engine ~on_env =
  ignore
    (Runner.run_single_node ~app:(app ()) ~kind:Env.Native ~contended:false
       ~config:(tailbench_config ~seed) ~on_engine ~on_env ())

(* Varbench on an fs-restricted corpus over a multikernel deployment of
   kspec-pruned kernels, with the Enforce allowlist installed on every
   rank.  The allowlist matches the restricted corpus exactly, so any
   policy denial is a wiring bug. *)
module Specialized_varbench = struct
  type result = { harness : Harness.result; denials : int }

  let name = "specialized-varbench"

  let run ~seed ~on_engine =
    let corpus =
      let full = small_corpus ~seed in
      match Profile.restrict full ~keep:Experiments.Specialize.retained with
      | Some c -> c
      | None -> full
    in
    let spec = Specializer.compile (Profile.of_corpus ~name corpus) in
    let engine = Engine.create ~seed () in
    on_engine engine;
    let env =
      Env.deploy ~engine
        ~kernel_config:(Specializer.kernel_config spec)
        Env.Multikernel
        (Partition.equal_split ~units:2 ~total_cores:8 ~total_mem_mb:8192)
    in
    Specializer.install_all env spec;
    let harness = small_varbench ~env ~corpus 4 in
    let denials =
      List.init (Env.rank_count env) (fun rank -> Specializer.denials env ~rank)
    in
    { harness; denials = List.fold_left ( + ) 0 denials }

  let check r =
    failures
      [
        fail_if (r.denials > 0)
          "%d policy denials (%d dropped by the harness) — the allowlist \
           must cover its own profile"
          r.denials r.harness.Harness.denied_calls;
      ]
end

(* A mini sweep of independent varbench cells fanned across a domain
   pool, every completed cell funnelled through one mutex-guarded
   journal — the single-writer discipline the kpar sweeps rely on.
   Sanitizer probes are not thread-safe, so the parallel phase runs
   unobserved; the journal is then reloaded and verified (every cell
   recorded exactly once, batched persists included), and one cell
   re-runs sequentially under [on_engine].  A journal discrepancy
   raises, which the runner reports as a crash finding. *)
let run_parallel_sweep ~seed ~on_engine =
  let cell ~observe i =
    let cell_seed = seed + (31 * i) in
    let engine = Engine.create ~seed:cell_seed () in
    if observe then on_engine engine;
    ignore
      (small_varbench ~env:(native_pair ~engine)
         ~corpus:(small_corpus ~seed:cell_seed) 2)
  in
  let key i = Printf.sprintf "cell:%d" i in
  let path = Filename.temp_file "ksurf-parsweep" ".journal" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let journal = Journal.load ~flush_every:2 ~path () in
      let cells = List.init 6 Fun.id in
      Ksurf_par.Pool.with_pool ~jobs:4 (fun pool ->
          ignore
            (Ksurf_par.Pool.map ~pool
               (fun i ->
                 cell ~observe:false i;
                 Journal.record journal (key i))
               cells));
      Journal.flush journal;
      let reloaded = Journal.load ~path () in
      List.iter
        (fun i ->
          if not (Journal.mem reloaded (key i)) then
            failwith
              (Printf.sprintf
                 "parallel-sweep: cell %d missing from the journal" i))
        cells;
      if List.length (Journal.cells reloaded) <> List.length cells then
        failwith "parallel-sweep: journal has duplicate or spurious cells");
  cell ~observe:true 0

(* A small churny Docker fleet: tenant admission and departure drive
   cgroup create/destroy storms through the shared accounting locks,
   and autoscaling reads epoch quantiles.  Whatever the latencies come
   out to, the SLO accounting must be internally consistent. *)
module Tenancy = struct
  type result = Fleet.result

  let name = "tenancy"

  let run ~seed ~on_engine =
    Fleet.run ~on_engine
      {
        Fleet.default_config with
        Fleet.tenants = 16;
        churn_per_day = 16.0;
        policy = Ksurf_tenant.Policy.Static Ksurf_tenant.Policy.Docker;
        seed;
        host_cores = 16;
        day_ns = 4e8;
        mean_rate_per_s = 400.0;
        epoch_ns = 5e7;
      }

  let check (r : result) =
    let open Fleet in
    failures
      [
        fail_if (r.completed <= 0) "no requests completed";
        fail_if (r.measured = 0) "no tenant measured";
        fail_if
          (r.attainment < 0.0 || r.attainment > 1.0)
          "attainment %.3f outside [0,1]" r.attainment;
        fail_if (r.slo_met > r.measured) "slo_met %d > measured %d" r.slo_met
          r.measured;
        fail_if (r.measured > r.arrivals)
          "measured %d exceeds tenants ever admitted" r.measured;
        fail_if
          (r.cgroup_destroys > r.cgroup_creates)
          "cgroup destroys %d > creates %d" r.cgroup_destroys r.cgroup_creates;
        fail_if (r.replica_imbalance <> 0)
          "replica imbalance %d: live replicas diverged from autoscaler \
           targets"
          r.replica_imbalance;
        fail_if (r.departures > r.arrivals) "departures %d exceed population"
          r.departures;
      ]
end

let stock : t list =
  [
    unchecked "varbench" run_varbench;
    unchecked "tailbench" run_tailbench;
    unchecked "bsp" run_bsp;
    faulted "faulted-varbench" run_faulted_varbench;
    faulted "faulted-tailbench" run_faulted_tailbench;
    (module Specialized_varbench);
    unchecked "parallel-sweep" run_parallel_sweep;
    (module Tenancy);
  ]

(* --- the runner ---------------------------------------------------------- *)

type report = {
  gate : string;
  seed : int;
  replay : Determinism.result option;
  findings : Finding.t list;
  failures : string list;
}

let run ((module G : S) : t) ~seed =
  let report replay findings failures =
    { gate = G.name; seed; replay; findings = Finding.sort findings; failures }
  in
  match Sanitizer.double_run ~run:(G.run ~seed) () with
  | result, replay, findings -> report (Some replay) findings (G.check result)
  | exception exn -> report None [ Sanitizer.crash_finding exn ] []

let clean r = r.findings = [] && r.failures = []

let pp_report ppf r =
  Format.fprintf ppf "analyze %s seed=%d: %d finding(s), %d failure(s)" r.gate
    r.seed (List.length r.findings) (List.length r.failures);
  Option.iter (Format.fprintf ppf "@.  %a" Determinism.pp_replay) r.replay;
  List.iter (Format.fprintf ppf "@.  FAIL: %s") r.failures;
  List.iter (Format.fprintf ppf "@.  %a" Finding.pp) r.findings;
  if clean r then Format.fprintf ppf "@.  no findings: all checks clean"
