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
module Supervisor = Ksurf_recov.Supervisor
module Journal = Ksurf_recov.Journal
module Fleet = Ksurf_tenant.Fleet
module Driftbench = Ksurf_adapt.Driftbench
module Profile = Ksurf_spec.Profile
module Specializer = Ksurf_spec.Specializer
module Fileio = Ksurf_util.Fileio
module Durplan = Ksurf_dur.Durplan
module Faultio = Ksurf_dur.Faultio
module Crashsim = Ksurf_dur.Crashsim
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

let small_varbench ?straggler_timeout_ns ~env ~corpus iterations =
  Harness.run ~env ~corpus
    ~params:{ Harness.iterations; warmup_iterations = 1 }
    ?straggler_timeout_ns ()

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

(* Faulted variants: the same workloads under an armed kfault plan.  The
   "crashy" preset exercises every injection mechanism including a rank
   crash, so these gates cover barrier departure (varbench) and
   crash/restart requeueing (tailbench) under the sanitizers. *)
let fault_plan () =
  match Ksurf_fault.Plan.preset "crashy" with
  | Some p -> p
  | None -> assert false

let run_faulted_varbench ~seed ~on_engine =
  let engine = Engine.create ~seed () in
  on_engine engine;
  let env = native_pair ~engine in
  let kf = Kfault.arm ~env ~plan:(fault_plan ()) ~seed () in
  ignore
    (small_varbench ~straggler_timeout_ns:5e9 ~env ~corpus:(small_corpus ~seed) 4);
  Kfault.disarm kf

let run_faulted_tailbench ~seed ~on_engine =
  let kf = ref None in
  let on_env env = kf := Some (Kfault.arm ~env ~plan:(fault_plan ()) ~seed ()) in
  ignore
    (Runner.run_single_node ~app:(app ()) ~kind:Env.Native ~contended:false
       ~config:(tailbench_config ~seed) ~request_timeout_ns:1e9 ~on_engine
       ~on_env ());
  Option.iter Kfault.disarm !kf

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

(* The supervised BSP synthesis under the crashy plan plus 2% random
   crashes, once per recovery policy: every policy must complete every
   superstep.  Then a Readmit run killed after 3 supersteps and resumed
   from its checkpoint must finish identically to the uninterrupted
   run.  Every node and superstep engine is sanitized, so the invariant
   analyzer's rank-transition checks assert the failover choreography
   itself: legal detector edges only, each Suspect -> Dead -> rejoin
   edge at most once per incident. *)
module Recovered_bsp = struct
  type result = {
    iterations : int;
    policies : Supervisor.outcome list;
    full : Supervisor.outcome;
    resumed : Supervisor.outcome;
  }

  let name = "recovered-bsp"

  let run ~seed ~on_engine =
    let config = cluster_config ~seed in
    let kind = Env.Native in
    let pool =
      Cluster.pool ~app:(app ()) ~kind ~contended:false ~config ~on_engine ()
    in
    let base =
      {
        Supervisor.default_config with
        Supervisor.nodes = Cluster.nodes_total;
        iterations = 10;
        barrier_cost_ns = Cluster.barrier_cost_for ~kind;
        crash_rate = 0.02;
        seed;
      }
    in
    let supervise ?resume_from ?kill_after config =
      Supervisor.run ~pool ~plan:(fault_plan ()) ~config ?resume_from
        ?kill_after ~on_engine ()
    in
    let policies =
      List.map
        (fun policy -> supervise { base with Supervisor.policy })
        [ Supervisor.Survivors; Supervisor.Readmit; Supervisor.Speculative ]
    in
    let ckpt = Filename.temp_file "ksurf-gate" ".ckpt" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists ckpt then Sys.remove ckpt)
      (fun () ->
        Sys.remove ckpt;
        let config =
          {
            base with
            Supervisor.policy = Supervisor.Readmit;
            checkpoint_interval = 2;
            checkpoint_path = Some ckpt;
          }
        in
        let full = supervise config in
        Sys.remove ckpt;
        ignore (supervise ~kill_after:3 config);
        let resumed = supervise ~resume_from:ckpt config in
        { iterations = base.Supervisor.iterations; policies; full; resumed })

  let check r =
    let key (o : Supervisor.outcome) =
      Supervisor.(o.runtime_ns, o.crashes, o.restarts, o.transitions, o.supersteps)
    in
    failures
      (List.map
         (fun (o : Supervisor.outcome) ->
           fail_if
             (o.Supervisor.supersteps <> r.iterations)
             "%s wedged: %d/%d supersteps" o.Supervisor.policy
             o.Supervisor.supersteps r.iterations)
         r.policies
      @ [
          fail_if
            (key r.full <> key r.resumed)
            "kill-and-resume diverged: %.0f vs %.0f ns, %d vs %d transitions \
             (resumed from superstep %d)"
            r.full.Supervisor.runtime_ns r.resumed.Supervisor.runtime_ns
            r.full.Supervisor.transitions r.resumed.Supervisor.transitions
            r.resumed.Supervisor.resumed_from;
        ])
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

(* A small churny adaptive fleet: tenant admission and departure drive
   cgroup create/destroy storms through the shared accounting locks,
   autoscaling reads epoch quantiles, and adaptive placement may
   migrate tenants mid-run.  Whatever the latencies come out to, the
   SLO accounting must be internally consistent. *)
module Tenancy = struct
  type result = Fleet.result

  let name = "tenancy"

  let run ~seed ~on_engine =
    Fleet.run ~on_engine
      {
        Fleet.default_config with
        Fleet.tenants = 16;
        churn_per_day = 16.0;
        policy = Ksurf_tenant.Policy.Adaptive;
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
        fail_if
          (r.measured > r.tenants + r.arrivals)
          "measured %d exceeds tenants ever admitted" r.measured;
        fail_if
          (r.cgroup_destroys > r.cgroup_creates)
          "cgroup destroys %d > creates %d" r.cgroup_destroys r.cgroup_creates;
        fail_if (r.replica_imbalance <> 0)
          "replica imbalance %d: live replicas diverged from autoscaler \
           targets"
          r.replica_imbalance;
        fail_if
          (r.departures > r.arrivals + r.tenants)
          "departures %d exceed population" r.departures;
      ]
end

(* A small kadapt driftbench cell: per-rank controllers audit, promote
   to Enforce, absorb a mid-run workload drift (demote, re-learn,
   re-promote), every policy hot-swap a probe-visible transition.  The
   controller accounting must match the probe stream, and the same
   cell under the static policy must lose to it on post-drift false
   positives. *)
module Adaptive_drift = struct
  type result = {
    adaptive : Driftbench.result;
    static : Driftbench.result;
    transitions : int;  (** audit/enforce transitions the probe saw *)
  }

  let name = "adaptive-drift"

  let config ~seed ~policy ~dose ~drift_at_ns =
    {
      Driftbench.policy;
      dose;
      epochs = 24;
      programs_per_epoch = 12;
      corpus_programs = 16;
      drift_at_ns;
      seed;
    }

  (* A run's virtual length follows its seed's corpus (about 1 ms at
     seed 1, 20 ms at seed 3), so a fixed trigger time misses short
     runs: fire 60% of the way through an undrifted run of the seed. *)
  let trigger ~seed =
    let engine = ref None in
    ignore
      (Driftbench.run
         ~on_engine:(fun e -> engine := Some e)
         (config ~seed ~policy:Driftbench.Adaptive ~dose:0.0 ~drift_at_ns:0.0));
    0.6 *. Engine.now (Option.get !engine)

  let run ~seed ~on_engine =
    let drift_at_ns = trigger ~seed in
    let cell policy = config ~seed ~policy ~dose:2.0 ~drift_at_ns in
    let transitions = ref 0 in
    let count = function
      | Engine.Rank_transition { to_state; _ }
        when to_state = "audit" || to_state = "enforce" ->
          incr transitions
      | _ -> ()
    in
    let adaptive =
      Driftbench.run
        ~on_engine:(fun engine ->
          on_engine engine;
          Engine.add_probe engine count)
        (cell Driftbench.Adaptive)
    in
    let static = Driftbench.run (cell Driftbench.Static) in
    { adaptive; static; transitions = !transitions }

  let check { adaptive = r; static = s; transitions } =
    let open Driftbench in
    failures
      [
        fail_if (r.calls <= 0) "no calls issued";
        fail_if (r.drifts <> 1) "expected exactly 1 workload drift, saw %d"
          r.drifts;
        fail_if (r.drift_at_ns = None) "drift never fired (sink not called)";
        fail_if
          (r.fp_rate < 0.0 || r.fp_rate > 1.0)
          "fp rate %.4f outside [0,1]" r.fp_rate;
        fail_if
          (r.denied_post_drift > r.denied)
          "post-drift denials %d exceed total %d" r.denied_post_drift r.denied;
        fail_if
          (r.calls_post_drift > r.calls)
          "post-drift calls %d exceed total %d" r.calls_post_drift r.calls;
        fail_if
          (r.swaps <> r.ranks + r.promotions + r.demotions)
          "swap count %d inconsistent: %d ranks + %d promotions + %d demotions"
          r.swaps r.ranks r.promotions r.demotions;
        fail_if (transitions <> r.swaps)
          "probe saw %d policy transitions, env counted %d swaps" transitions
          r.swaps;
        fail_if
          (r.promotions < r.ranks)
          "only %d promotions across %d ranks: some rank never left audit"
          r.promotions r.ranks;
        fail_if (r.demotions < 1) "dose %.1f drift triggered no demotion" r.dose;
        fail_if (s.denied = 0) "static policy denied nothing under drift";
        fail_if (r.fp_rate >= s.fp_rate) "adaptive fp %.4f does not beat static %.4f"
          r.fp_rate s.fp_rate;
        fail_if
          (s.reduction > 0.0 && r.reduction < 0.4 *. s.reduction)
          "adaptive retains only %.0f%% of static's surface reduction"
          (100.0 *. r.reduction /. s.reduction);
      ]
end

(* kdur crash consistency.  The quick torture grid (writer path x dose
   0/1) at 1 and 4 workers must hold every invariant at every crash
   point, with cell results and exported bytes independent of the
   worker count.  Then the same durability machinery wired into a live
   engine workload: three varbench cells journalled through a
   Recov_journal whose host I/O runs under an armed fault plan
   (transients, an ENOSPC window, a scheduled crash) must recover from
   every injected death and drain every deferred persist. *)
module Torture = struct
  module T = Experiments.Torture

  type result = {
    grid : T.t;  (** the 1-worker grid *)
    workers_agree : bool;  (** same cells at 4 workers *)
    exports_agree : bool;  (** same exported bytes at 4 workers *)
    converged : bool;  (** the live journal became durable *)
    executed : int;  (** live cells executed *)
    lost : string list;  (** live cells missing from the journal *)
    litter : bool;  (** temp files survived recovery *)
    io : Faultio.stats;
  }

  let name = "torture"

  let live_plan =
    {
      Durplan.name = "smoke";
      actions =
        [
          Durplan.Transient { rate = 0.4; eintr_share = 0.5 };
          Durplan.Enospc_window { from_op = 4; until_op = 8 };
          Durplan.Crash_at { op = 2 };
        ];
    }

  let live_cells = [ "varbench:0"; "varbench:1"; "varbench:2" ]

  let grid ~seed ~root jobs =
    Ksurf_par.Pool.with_pool ~jobs (fun pool ->
        T.run ~doses:[ 0.0; 1.0 ]
          ~scratch:(Filename.concat root (Printf.sprintf "grid-j%d" jobs))
          (Experiments.context ~seed ~pool Experiments.Quick))

  let export_bytes ~root jobs t =
    let dir = Filename.concat root (Printf.sprintf "csv-j%d" jobs) in
    List.map
      (fun c ->
        In_channel.with_open_bin (Experiments.write_csv ~dir c)
          In_channel.input_all)
      (Experiments.csvs T.columns t)

  let run ~seed ~on_engine =
    let root = Filename.temp_dir "ksurf-torture-gate" "" in
    Fun.protect ~finally:(fun () -> Crashsim.rm_tree root) @@ fun () ->
    let t1 = grid ~seed ~root 1 in
    let t4 = grid ~seed ~root 4 in
    let exports_agree = export_bytes ~root 1 t1 = export_bytes ~root 4 t4 in
    let dir = Filename.concat root "live" in
    Fileio.ensure_dir dir;
    let jpath = Filename.concat dir "cells.journal" in
    let inj = Faultio.make ~root:dir ~seed live_plan in
    let executed = ref [] in
    let journal_cells () =
      ignore (Fileio.sweep_tmp ~dir);
      let j = Journal.load ~flush_every:1 ~path:jpath () in
      List.iter
        (fun cell ->
          if not (Journal.mem j cell) then begin
            (* Recorded cells are never re-executed; a cell whose
               completion died before persisting is legitimately
               recomputed — here memoised so the engine event stream
               stays replay-identical. *)
            if not (List.mem cell !executed) then begin
              run_varbench ~seed ~on_engine;
              executed := cell :: !executed
            end;
            Journal.record j cell
          end)
        live_cells;
      Journal.flush j;
      Journal.persist_pending j
    in
    (* An ENOSPC deferral clears as ops advance; a crash is recovered by
       the next attempt. *)
    let rec attempt n =
      n <= 50
      &&
      match Faultio.with_faults inj journal_cells with
      | false -> true
      | true | (exception Ksurf_util.Iohook.Crashed _) -> attempt (n + 1)
    in
    let converged = attempt 1 in
    let j = Journal.load ~path:jpath () in
    {
      grid = t1;
      workers_agree = t1.T.cells = t4.T.cells;
      exports_agree;
      converged;
      executed = List.length !executed;
      lost = List.filter (fun c -> not (Journal.mem j c)) live_cells;
      litter = Fileio.sweep_tmp ~dir <> 0;
      io = Faultio.stats inj;
    }

  let check r =
    let module D = Ksurf_dur.Torture in
    failures
      (List.concat_map
         (fun (c : D.result) ->
           [
             fail_if (D.violations c <> 0) "%s dose %.1f: %d consistency violations"
               c.D.kind c.D.dose (D.violations c);
             fail_if
               (c.D.live_runs > 0 && c.D.recovery_ok < 1.0)
               "%s dose %.1f: live recovery %.2f < 1.0" c.D.kind c.D.dose
               c.D.recovery_ok;
           ])
         r.grid.T.cells
      @ [
          fail_if (not r.workers_agree)
            "cell results differ between 1 and 4 workers";
          fail_if (not r.exports_agree)
            "exported CSV bytes differ between 1 and 4 workers";
          fail_if (not r.converged) "live journal never converged";
          fail_if
            (r.executed <> List.length live_cells)
            "%d live cells executed, expected %d" r.executed
            (List.length live_cells);
          fail_if (r.lost <> []) "live cells lost: %s" (String.concat ", " r.lost);
          fail_if r.litter "temp litter survived recovery";
          fail_if (r.io.Faultio.crashes < 1) "scheduled crash never fired";
          fail_if (r.io.Faultio.enospc < 1) "ENOSPC window never hit";
          fail_if (r.io.Faultio.transients < 1) "no transient faults injected";
        ])
end

let stock : t list =
  [
    unchecked "varbench" run_varbench;
    unchecked "tailbench" run_tailbench;
    unchecked "bsp" run_bsp;
    unchecked "faulted-varbench" run_faulted_varbench;
    unchecked "faulted-tailbench" run_faulted_tailbench;
    (module Specialized_varbench);
    (module Recovered_bsp);
    unchecked "parallel-sweep" run_parallel_sweep;
    (module Tenancy);
    (module Adaptive_drift);
    (module Torture);
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
