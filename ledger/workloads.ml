(* The five workloads.  Each is a fixed amount of simulation (a pass),
   built only from public library calls, plus the set-up a user pays
   before any pass can start.  Inputs come from the run's seed alone:
   the seed corpus (syzgen seed 42, the corpus every study uses) in an
   order drawn from the seed, and every engine and client stream seeded
   with it.  Reordering keeps the amount of work per pass the same from
   seed to seed — regenerating the corpus would not (its size swings
   +-10% between seeds, which would swamp the bounds) — while every
   seed still simulates different interleavings.  The fleets are fixed
   for the same reason (see [fleet_cells]). *)

module K = Ksurf
module Engine = K.Engine
module Env = K.Env
module Streamstat = K.Streamstat

type scale = Full | Smoke

type inputs = { seed : int; scale : scale; corpus : K.Corpus.t }

let seed_corpus scale =
  K.Experiments.default_corpus ~seed:42
    (match scale with Full -> K.Experiments.Full | Smoke -> K.Experiments.Quick)

let make_inputs ~scale ~seed =
  let programs = Array.copy (K.Corpus.programs (seed_corpus scale)) in
  K.Prng.shuffle (K.Prng.create seed) programs;
  { seed; scale; corpus = K.Corpus.of_programs (Array.to_list programs) }

(* Pass sizes.  Full passes take 1-2 s on one core so a 10 s run holds
   several of them; Smoke is the seconds-long shape the runtest uses. *)
type sizes = {
  iterations : int;  (** varbench measured iterations (shared kernel) *)
  sweep_iterations : int;  (** varbench measured iterations per KVM cell *)
  varbench_warmup : int;
  fleets : int;  (** fleets per policy, each of its own seed *)
  fleet_requests : int;  (** request target of each fleet *)
  tail_requests : int;
}

let sizes = function
  | Full ->
      {
        iterations = 12;
        sweep_iterations = 6;
        varbench_warmup = 2;
        fleets = 8;
        fleet_requests = 5_000;
        tail_requests = 1_500;
      }
  | Smoke ->
      {
        iterations = 2;
        sweep_iterations = 2;
        varbench_warmup = 0;
        fleets = 2;
        fleet_requests = 2_500;
        tail_requests = 100;
      }

(* ------------------------------------------------------------------ *)
(* One cell: a self-contained simulation with its own engine(s).       *)

type cell = {
  cell : string;
  fingerprint : string;
      (** stable hash of the rendered simulated result — never of event
          counts, which a legal simulator change may reduce *)
  words : float;  (** minor words allocated by the simulation, on its domain *)
  events : int;  (** events executed by the cell's engines *)
  seconds : float;
  error : string option;
  layer : (string * float) list;  (** per-layer counts the result reports *)
  counts : Tracer.counts option;  (** probe counts, traced passes only *)
}

let run_cell ~tracer ~parent ?(after = fun () -> ()) name run ~render ~check
    ~layer =
  Tracer.span tracer ~parent ("cell:" ^ name) (fun () ->
      let engines = ref [] in
      let counts = Option.map (fun _ -> Tracer.counts ()) tracer in
      let on_engine e =
        engines := e :: !engines;
        Option.iter (fun c -> Engine.add_probe e (Tracer.on_event c)) counts
      in
      let w0 = Gc.minor_words () in
      let t0 = K.Clock.now_s () in
      let outcome =
        try Ok (run ~on_engine) with e -> Error (Printexc.to_string e)
      in
      let seconds = K.Clock.elapsed_s ~since:t0 in
      let words = Gc.minor_words () -. w0 in
      let events =
        List.fold_left (fun a e -> a + Engine.events_executed e) 0 !engines
      in
      after ();
      match outcome with
      | Ok r ->
          {
            cell = name;
            fingerprint = Printf.sprintf "%016x" (K.Stable_hash.string (render r));
            words;
            events;
            seconds;
            error = check r;
            layer = layer r;
            counts;
          }
      | Error e ->
          {
            cell = name;
            fingerprint = "-";
            words;
            events;
            seconds;
            error = Some e;
            layer = [];
            counts;
          })

let sweep ~tracer ~pool f cells =
  Tracer.span tracer "par.pool.map" (fun () ->
      let parent = Tracer.current_id () in
      K.Pool.map ~pool (f ~parent) cells)

(* ------------------------------------------------------------------ *)
(* Fingerprints: the simulated results, rendered exactly.              *)

let render_stat b s =
  Printf.bprintf b " %d %h %h %h %h %h %h" (Streamstat.count s)
    (Streamstat.mean s) (Streamstat.p50 s) (Streamstat.p95 s)
    (Streamstat.p99 s) (Streamstat.min_value s) (Streamstat.max_value s)

let render_harness (r : K.Harness.result) =
  let b = Buffer.create 16384 in
  Array.iter
    (fun (s : K.Harness.site) ->
      Printf.bprintf b "%d/%d:%s" s.program s.index s.syscall.K.Spec.name;
      render_stat b s.stats;
      Buffer.add_char b '\n')
    r.sites;
  render_stat b r.overall;
  Printf.bprintf b "\n%d %d %h %b %d [%s] %d %d %d" r.ranks r.iterations
    r.wall_time_ns r.degraded r.survivors
    (String.concat ";" (List.map string_of_int r.dropped_ranks))
    r.transient_retries r.abandoned_calls r.denied_calls;
  Buffer.contents b

let render_runner (r : K.Runner.result) =
  Printf.sprintf "%s %s %b %d %h %h %h %h %h %b %d %d %d %d" r.app_name r.kind
    r.contended r.count r.mean r.p95 r.p99 r.max r.wall_ns r.degraded
    r.survivors r.crashes r.restarts r.timeouts

let render_fleet (r : K.Fleet.result) =
  Printf.sprintf
    "%s %d %h %d %h %h %h %h %h %h %d %d %h %d %d %d %d %d %d %d %d %d %d %d \
     %d %d %d %h"
    r.policy r.tenants r.churn_per_day r.completed r.mean r.p50 r.p95 r.p99
    r.max r.slo_ns r.measured r.slo_met r.attainment r.epoch_violations
    r.arrivals r.departures r.cgroup_creates r.cgroup_destroys r.migrations
    r.scale_ups r.scale_downs r.replica_imbalance r.peak_cgroups r.final_native
    r.final_docker r.final_kvm r.final_mk r.virtual_ns

(* ------------------------------------------------------------------ *)
(* Cell kinds.                                                          *)

let kvm = Env.Kvm K.Virt_config.default

let varbench_params inputs ~iterations =
  {
    K.Harness.iterations;
    warmup_iterations = (sizes inputs.scale).varbench_warmup;
  }

let check_harness inputs ~(params : K.Harness.params) (r : K.Harness.result) =
  let expected =
    K.Corpus.total_calls inputs.corpus * r.ranks * params.K.Harness.iterations
  in
  if r.degraded || r.survivors <> r.ranks then Some "varbench run degraded"
  else if r.abandoned_calls > 0 || r.denied_calls > 0 then
    Some "varbench calls abandoned or denied"
  else if K.Harness.total_invocations r <> expected then
    Some
      (Printf.sprintf "varbench measured %d calls, expected %d"
         (K.Harness.total_invocations r) expected)
  else None

let deploy ~tracer ~engine kind partition =
  Tracer.span tracer "env.deploy" (fun () -> Env.deploy ~engine kind partition)

let harness ~tracer ~env inputs ~params =
  Tracer.span tracer "varbench.harness.run" (fun () ->
      K.Harness.run ~env ~corpus:inputs.corpus ~params ())

let varbench_cell ~tracer ~iterations ?after inputs ~parent (name, kind, units) =
  let params = varbench_params inputs ~iterations in
  run_cell ~tracer ~parent ?after name
    (fun ~on_engine ->
      let engine = Engine.create ~seed:inputs.seed () in
      on_engine engine;
      let env = deploy ~tracer ~engine kind (K.Partition.table1 units) in
      harness ~tracer ~env inputs ~params)
    ~render:render_harness ~check:(check_harness inputs ~params)
    ~layer:(fun r ->
      [ ("varbench.harness.calls", float (K.Harness.total_invocations r)) ])

(* The sanitizer path: lockdep and the engine invariant checker on the
   probe stream of a shared-kernel run, which must stay clean. *)
let observed_cell ~tracer inputs ~parent (name, kind, units) =
  let params = varbench_params inputs ~iterations:(sizes inputs.scale).iterations in
  run_cell ~tracer ~parent name
    (fun ~on_engine ->
      let engine = Engine.create ~seed:inputs.seed () in
      on_engine engine;
      let lockdep = K.Analysis.Lockdep.create () in
      let invariants = K.Analysis.Invariants.create () in
      Engine.add_probe engine (K.Analysis.Lockdep.on_event lockdep);
      Engine.add_probe engine (K.Analysis.Invariants.on_event invariants);
      let env = deploy ~tracer ~engine kind (K.Partition.table1 units) in
      let r = harness ~tracer ~env inputs ~params in
      let drained = Engine.pending engine = 0 in
      let findings =
        K.Analysis.Lockdep.finish ~drained lockdep
        @ K.Analysis.Invariants.finish ~drained invariants
      in
      (r, findings, K.Analysis.Invariants.events invariants))
    ~render:(fun (r, findings, _) ->
      Printf.sprintf "%s\nfindings %d" (render_harness r) (List.length findings))
    ~check:(fun (r, findings, _) ->
      match findings with
      | [] -> check_harness inputs ~params r
      | f :: _ ->
          Some
            (Format.asprintf "%d sanitizer finding(s), first: %a"
               (List.length findings) K.Analysis.Finding.pp f))
    ~layer:(fun (r, _, events) ->
      [
        ("varbench.harness.calls", float (K.Harness.total_invocations r));
        ("analysis.probe_events", float events);
      ])

let fleet_config inputs ~policy ~requests =
  {
    K.Fleet.default_config with
    K.Fleet.tenants = 64;
    churn_per_day = 8.0;
    policy;
    seed = inputs.seed;
    days = 4000.0;
    warmup_fraction = 0.001;
    request_target = Some requests;
  }

let fleet_policies = K.Tenant_policy.[ Static Kvm; Static Docker ]

(* A fleet's seed decides how much churn it sees before its request
   target — arrivals are a random stream — and so how much work it is:
   between run seeds a pass's allocation swung by 1.1%, more than the
   bound on it.  So, like the corpus, the fleets are fixed: fleet seeds
   1..n, whatever the run's seed. *)
let fleet_cells inputs =
  List.concat_map
    (fun policy -> List.init (sizes inputs.scale).fleets (fun i -> (policy, i + 1)))
    fleet_policies

let fleet_cell ~tracer inputs ~parent (policy, fleet_seed) =
  let requests = (sizes inputs.scale).fleet_requests in
  let inputs = { inputs with seed = fleet_seed } in
  run_cell ~tracer ~parent
    (Printf.sprintf "%s/%d" (K.Tenant_policy.name policy) fleet_seed)
    (fun ~on_engine ->
      Tracer.span tracer "tenant.fleet.run" (fun () ->
          K.Fleet.run ~on_engine (fleet_config inputs ~policy ~requests)))
    ~render:render_fleet
    ~check:(fun (r : K.Fleet.result) ->
      if r.completed < requests then
        Some (Printf.sprintf "fleet served %d of %d requests" r.completed requests)
      else if r.replica_imbalance <> 0 then Some "fleet replica imbalance"
      else None)
    ~layer:(fun (r : K.Fleet.result) ->
      [
        ("tenant.fleet.requests", float r.completed);
        ("tenant.fleet.arrivals", float r.arrivals);
        ("tenant.fleet.cgroup_storms", float (r.cgroup_creates + r.cgroup_destroys));
      ])

let runner_config inputs =
  {
    K.Runner.default_config with
    K.Runner.requests = (sizes inputs.scale).tail_requests;
    seed = inputs.seed;
  }

let tail_cells = List.concat_map (fun app -> [ (app, kvm); (app, Env.Docker) ]) K.Apps.all

let tail_cell ~tracer inputs ~parent ((app : K.Apps.t), kind) =
  run_cell ~tracer ~parent
    (app.K.Apps.name ^ "/" ^ Env.kind_name kind)
    (fun ~on_engine ->
      Tracer.span tracer "tailbench.runner.run_single_node" (fun () ->
          K.Runner.run_single_node ~app ~kind ~contended:false
            ~config:(runner_config inputs) ~noise_corpus:inputs.corpus ~on_engine ()))
    ~render:render_runner
    ~check:(fun (r : K.Runner.result) ->
      if r.degraded || r.timeouts > 0 then Some "tailbench run degraded"
      else if r.count = 0 then Some "tailbench measured no requests"
      else None)
    ~layer:(fun (r : K.Runner.result) -> [ ("tailbench.runner.requests", float r.count) ])

(* ------------------------------------------------------------------ *)
(* The partitioned sweep journals every cell the way [--journal] does,
   in a private directory that the pass removes again. *)

let journal_dirs = Atomic.make 0

let journalled_sweep ~tracer ~pool ~workdir inputs =
  let dir =
    Filename.concat workdir
      (Printf.sprintf "journal-%d-%d" (Unix.getpid ())
         (Atomic.fetch_and_add journal_dirs 1))
  in
  K.Fileio.ensure_dir dir;
  let path = Filename.concat dir "journal" in
  let journal = K.Recov_journal.load ~path () in
  let persists = Atomic.make 0 in
  (* Traced passes count the journal's renames (one per persist) through
     the domain-local I/O hook, on whichever domain persists. *)
  let io f =
    match tracer with
    | None -> f ()
    | Some _ ->
        K.Iohook.with_handler
          (fun op ->
            (match op with
            | K.Iohook.Rename { dst; _ } when dst = path -> Atomic.incr persists
            | _ -> ());
            K.Iohook.Proceed)
          f
  in
  let key n = Printf.sprintf "ledger:kvm-%d" n in
  let cells =
    sweep ~tracer ~pool
      (fun ~parent n ->
        varbench_cell ~tracer
          ~iterations:(sizes inputs.scale).sweep_iterations
          ~after:(fun () ->
            Tracer.span tracer "recov.journal.record" (fun () ->
                io (fun () -> K.Recov_journal.record journal (key n))))
          inputs ~parent
          (Printf.sprintf "kvm-%d" n, kvm, n))
      K.Partition.table1_rows
  in
  Tracer.span tracer "recov.journal.flush" (fun () ->
      io (fun () -> K.Recov_journal.flush journal));
  let on_disk = K.Recov_journal.cells (K.Recov_journal.load ~path ()) in
  let lost =
    List.filter (fun n -> not (List.mem (key n) on_disk)) K.Partition.table1_rows
  in
  let litter = K.Fileio.sweep_tmp ~dir in
  K.Fileio.remove path;
  Sys.rmdir dir;
  let problem =
    if lost <> [] then Some (Printf.sprintf "journal lost %d cell(s)" (List.length lost))
    else if litter > 0 then Some (Printf.sprintf "journal left %d temp file(s)" litter)
    else None
  in
  let cells =
    match problem with
    | None -> cells
    | Some _ -> List.map (fun c -> { c with error = problem }) cells
  in
  (* The pass's persist count rides on its first cell, where per-layer
     totals sum it. *)
  let persists = float (Atomic.get persists) in
  List.mapi
    (fun i c ->
      if i = 0 then { c with layer = ("recov.journal.persists", persists) :: c.layer }
      else c)
    cells

(* ------------------------------------------------------------------ *)

type t = {
  name : string;
  jobs : int;  (** pool width; never more than 2 domains *)
  setup : inputs -> unit;  (** what a user pays before a pass can start *)
  pass :
    tracer:Tracer.t option -> pool:K.Pool.t -> workdir:string -> inputs -> cell list;
}

let boot ?machine ~seed kind partition =
  ignore (Env.deploy ~engine:(Engine.create ~seed ()) ?machine kind partition)

let corpus_and_deploys ?machine envs inputs =
  ignore (make_inputs ~scale:inputs.scale ~seed:inputs.seed);
  List.iter (fun (kind, partition) -> boot ?machine ~seed:inputs.seed kind partition) envs

let table1 envs = List.map (fun (kind, units) -> (kind, K.Partition.table1 units)) envs

(* Table 2's shared host kernel: 64 ranks on one native kernel, and 64
   containers on one host kernel, contend on its global locks — sim
   sync and engine parking dominate. *)
let shared_envs = [ ("native", Env.Native, 1); ("docker-64", Env.Docker, 64) ]

let shared_kernel =
  {
    name = "shared-kernel";
    jobs = 1;
    setup = corpus_and_deploys (table1 (List.map (fun (_, k, u) -> (k, u)) shared_envs));
    pass =
      (fun ~tracer ~pool ~workdir:_ inputs ->
        sweep ~tracer ~pool
          (varbench_cell ~tracer ~iterations:(sizes inputs.scale).iterations inputs)
          shared_envs);
  }

(* Fig 2's KVM sweep on two domains, journalled: the same corpus on
   ever smaller guest kernels, so contention falls cell by cell (none
   left at 64 VMs) while op interpretation, the KVM wrapper and guest
   daemons keep working — the bypass case for a sync change.  The only
   workload that exercises the pool and the journal. *)
let partitioned_sweep =
  {
    name = "partitioned-sweep";
    jobs = 2;
    setup = corpus_and_deploys (table1 (List.map (fun n -> (kvm, n)) K.Partition.table1_rows));
    pass = journalled_sweep;
  }

(* 64 churning tenants under KVM and Docker: every churn and scale-up
   boots a kernel, so work moved into boot or deploy shows here.  Its
   set-up runs every fleet of the pass up to its first request: fleet
   construction, host boot and the first request. *)
let fleet_churn =
  {
    name = "fleet-churn";
    jobs = 1;
    setup =
      (fun inputs ->
        List.iter
          (fun (policy, fleet_seed) ->
            ignore
              (K.Fleet.run
                 (fleet_config { inputs with seed = fleet_seed } ~policy ~requests:1)))
          (fleet_cells inputs));
    pass =
      (fun ~tracer ~pool ~workdir:_ inputs ->
        sweep ~tracer ~pool (fleet_cell ~tracer inputs) (fleet_cells inputs));
  }

(* The native cell under lockdep and the invariant sanitizer (the smoke
   gates' path): the only workload where emitting probe events costs
   anything. *)
let observed_envs = [ ("native", Env.Native, 1) ]

let observed_shared =
  {
    name = "observed-shared";
    jobs = 1;
    setup = corpus_and_deploys (table1 [ (Env.Native, 1) ]);
    pass =
      (fun ~tracer ~pool ~workdir:_ inputs ->
        sweep ~tracer ~pool (observed_cell ~tracer inputs) observed_envs);
  }

(* Fig 3 isolated: 8 apps under KVM and Docker serving open-loop
   requests — mailboxes, per-request service programs, exact quantiles,
   no barriers. *)
let tail_partition =
  let c = K.Runner.default_config in
  K.Partition.equal_split ~units:c.units
    ~total_cores:(c.units * c.unit_cores)
    ~total_mem_mb:(c.units * c.unit_mem_mb)

let tail_serving =
  {
    name = "tail-serving";
    jobs = 1;
    setup =
      corpus_and_deploys ~machine:K.Runner.default_config.machine
        [ (kvm, tail_partition); (Env.Docker, tail_partition) ];
    pass =
      (fun ~tracer ~pool ~workdir:_ inputs ->
        sweep ~tracer ~pool (tail_cell ~tracer inputs) tail_cells);
  }

let all = [ shared_kernel; partitioned_sweep; fleet_churn; observed_shared; tail_serving ]
let names = List.map (fun w -> w.name) all
let find name = List.find_opt (fun w -> w.name = name) all
