(* The benchmark harness: regenerates every table and figure of the
   paper (at Full scale) and micro-benchmarks the simulator core with
   Bechamel.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe table2     # one Experiments.tables entry
     dune exec bench/main.exe micro      # microbenchmarks only
     dune exec bench/main.exe sweep quick  # kpar throughput scan

   A second argument "quick" switches the experiments to the fast
   smoke-scale used by tests; "--jobs N" sets the sweep worker count
   (default: KSURF_JOBS or the machine's recommended domain count
   minus one). *)

module E = Ksurf.Experiments

(* Monotonic, not [Unix.gettimeofday]: an NTP step mid-benchmark would
   otherwise corrupt the reported durations and BENCH_kpar.json. *)
let timed name f =
  let t0 = Ksurf.Clock.now_s () in
  let r = f () in
  Format.printf "@.[%s took %.1fs]@.@." name (Ksurf.Clock.elapsed_s ~since:t0);
  r

(* ------------------------------------------------------------------ *)
(* kpar throughput scan: the dose sweep at increasing worker counts.   *)

(* Runs the dose sweep once per jobs setting, measures cells/sec on the
   monotonic clock, stable-hashes the rendered output to prove every
   worker count produced the identical result, and writes the lot to
   BENCH_kpar.json.  Wall-clock speedup is capped by the host's cores
   — min(jobs, cores) is the most any schedule can deliver — so the
   gate adapts: on a host with >= 4 cores, [--gate-speedup X] enforces
   the full X floor at jobs=4; on smaller hosts it enforces the
   anti-scaling floor instead.  The floor leaves ~25% headroom for
   scheduler noise on an oversubscribed 1-core box (observed runs swing
   0.83-1.03x there) while still sitting far above the 0.31-0.49x
   signature of the GC-rendezvous bug it guards against.  The hash
   equality is the unconditional hard claim either way. *)
let anti_scaling_floor = 0.75

(* The gate branches on the host's core count, which makes the
   full-floor branch untestable on small machines; KSURF_BENCH_ASSUME_CORES
   pretends the host has N cores so both branches (and the fail path)
   can be driven anywhere.  Test hook only — it changes which floor is
   enforced, never the measured numbers. *)
let assumed_cores () =
  match Sys.getenv_opt "KSURF_BENCH_ASSUME_CORES" with
  | Some s when (match int_of_string_opt (String.trim s) with
                | Some n -> n > 0
                | None -> false) ->
      int_of_string (String.trim s)
  | Some _ | None -> Domain.recommended_domain_count ()

let run_sweep ~seed ~scale ~gate_speedup =
  let cores = assumed_cores () in
  let corpus = E.default_corpus ~seed scale in
  let job_counts = [ 1; 2; 4; 8 ] in
  (* Best of two timed runs per job count.  Host interference (another
     process stealing the core mid-run) only ever slows a run down, so
     min-time is the low-noise estimator — a single-run sweep on a busy
     box swings ±20% and flakes the gate.  Both runs must hash
     identically; the determinism check below then compares across job
     counts as before. *)
  let reps = 2 in
  let rows =
    List.map
      (fun jobs ->
        Ksurf.Pool.with_pool ~jobs (fun pool ->
            let timed_run () =
              let t0 = Ksurf.Clock.now_s () in
              let t = E.Dose.run ~seed ~scale ~corpus ~pool () in
              let seconds = Ksurf.Clock.elapsed_s ~since:t0 in
              let cells = List.length t.E.Dose.cells in
              let hash =
                Ksurf.Stable_hash.string (Format.asprintf "%a" E.Dose.pp t)
              in
              (jobs, cells, seconds, hash)
            in
            let runs = List.init reps (fun _ -> timed_run ()) in
            let (_, _, _, h0) = List.hd runs in
            List.iter
              (fun (_, _, _, h) ->
                if h <> h0 then begin
                  Format.printf
                    "  jobs=%d: repeat run DIVERGED from its first run@." jobs;
                  exit 1
                end)
              runs;
            List.fold_left
              (fun ((_, _, best_s, _) as best) ((_, _, s, _) as r) ->
                if s < best_s then r else best)
              (List.hd runs) (List.tl runs)))
      job_counts
  in
  let hash0 = match rows with (_, _, _, h) :: _ -> h | [] -> 0 in
  let deterministic = List.for_all (fun (_, _, _, h) -> h = hash0) rows in
  let base_rate =
    match rows with
    | (_, cells, seconds, _) :: _ when seconds > 0.0 ->
        float_of_int cells /. seconds
    | _ -> 0.0
  in
  Format.printf "kpar sweep throughput (dose sweep, seed=%d):@." seed;
  List.iter
    (fun (jobs, cells, seconds, hash) ->
      let rate = if seconds > 0.0 then float_of_int cells /. seconds else 0.0 in
      Format.printf
        "  jobs=%d  %d cells in %.2fs  (%.2f cells/s, %.2fx, hash %08x)@."
        jobs cells seconds rate
        (if base_rate > 0.0 then rate /. base_rate else 0.0)
        hash)
    rows;
  Format.printf "  outputs across job counts: %s@."
    (if deterministic then "bit-identical" else "DIVERGENT");
  Format.printf
    "  host cores: %d (wall-clock speedup at jobs=N is capped at min(N, %d))@."
    cores cores;
  (* Per-jobs speedup ratios, pulled out as named top-level JSON fields
     so dashboards and the gate below read them without re-deriving
     anything from the row list. *)
  let speedup_of jobs =
    List.find_map
      (fun (j, cells, seconds, _) ->
        if j = jobs && seconds > 0.0 && base_rate > 0.0 then
          Some (float_of_int cells /. seconds /. base_rate)
        else None)
      rows
    |> Option.value ~default:0.0
  in
  let json =
    let row_json (jobs, cells, seconds, hash) =
      let rate = if seconds > 0.0 then float_of_int cells /. seconds else 0.0 in
      Printf.sprintf
        "    { \"jobs\": %d, \"cells\": %d, \"seconds\": %.6f, \
         \"cells_per_sec\": %.3f, \"speedup\": %.3f, \"output_hash\": \
         \"%08x\" }"
        jobs cells seconds rate
        (if base_rate > 0.0 then rate /. base_rate else 0.0)
        hash
    in
    Printf.sprintf
      "{\n\
      \  \"benchmark\": \"kpar-dose-sweep\",\n\
      \  \"seed\": %d,\n\
      \  \"scale\": %S,\n\
      \  \"host_cores\": %d,\n\
      \  \"speedup_attainable_jobs4\": %.1f,\n\
      \  \"deterministic_across_jobs\": %b,\n\
      \  \"speedup_jobs2\": %.3f,\n\
      \  \"speedup_jobs4\": %.3f,\n\
      \  \"speedup_jobs8\": %.3f,\n\
      \  \"rows\": [\n%s\n  ]\n\
       }\n"
      seed
      (match scale with E.Quick -> "quick" | E.Full -> "full")
      cores
      (float_of_int (min 4 cores))
      deterministic (speedup_of 2) (speedup_of 4) (speedup_of 8)
      (String.concat ",\n" (List.map row_json rows))
  in
  Ksurf.Fileio.write_atomic ~path:"BENCH_kpar.json" (fun oc ->
      output_string oc json);
  Format.printf "  wrote BENCH_kpar.json@.";
  if not deterministic then exit 1;
  (* Scaling gate: require the jobs=4 speedup to clear a floor.  The
     requested floor applies verbatim where the hardware can deliver it
     (>= 4 cores); hosts with fewer cores are still gated — on the
     anti-scaling floor, because a correct pool may cost a little
     coordination but must never serialise the way the GC-rendezvous
     bug did (0.31–0.49x before the fix). *)
  match gate_speedup with
  | None -> ()
  | Some floor ->
      let s4 = speedup_of 4 in
      let applied, why =
        if cores >= 4 then (floor, Printf.sprintf "wall-clock floor %.2fx" floor)
        else
          ( anti_scaling_floor,
            Printf.sprintf
              "anti-scaling floor %.2fx (host has %d core%s: %.2fx is \
               unattainable wall-clock; the full floor applies on >= 4 cores)"
              anti_scaling_floor cores
              (if cores = 1 then "" else "s")
              floor )
      in
      if s4 < applied then begin
        Format.printf "  speedup gate FAILED: jobs=4 %.2fx < %s@." s4 why;
        exit 1
      end
      else Format.printf "  speedup gate passed: jobs=4 %.2fx >= %s@." s4 why

(* ------------------------------------------------------------------ *)
(* ktenant memory-flatness bench: the same churny fleet at 10^5 and    *)
(* 10^6 requests.  Every latency accumulator is a Streamstat, so peak  *)
(* RSS must stay flat while the request count grows 10x — that ratio   *)
(* is the hard claim, the wall-clock numbers are machine-dependent     *)
(* context.                                                            *)

(* Peak resident set (kB) from /proc/self/status; 0 where the kernel
   doesn't provide it (non-Linux).  VmHWM is a process-lifetime
   high-water mark, so running the small target first means any growth
   measured after the big target is growth the big target caused. *)
let vm_hwm_kb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line ->
              if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                Scanf.sscanf (String.sub line 6 (String.length line - 6))
                  " %d" Fun.id
              else scan ()
          | exception End_of_file -> 0
        in
        scan ())
  with Sys_error _ -> 0

let run_tenancy ~seed ~scale =
  let module F = Ksurf.Fleet in
  let module P = Ksurf.Tenant_policy in
  let targets =
    match scale with
    | E.Quick -> [ 10_000; 100_000 ]
    | E.Full -> [ 100_000; 1_000_000 ]
  in
  let config target =
    {
      F.default_config with
      F.tenants = 64;
      churn_per_day = 8.0;
      policy = P.Static P.Docker;
      seed;
      (* t_end far beyond the request target: the run always stops on
         the target, and the 1% warmup fraction keeps the staggered
         boot storm short. *)
      days = 4000.0;
      warmup_fraction = 0.001;
      request_target = Some target;
    }
  in
  let rows =
    List.map
      (fun target ->
        Gc.compact ();
        let t0 = Ksurf.Clock.now_s () in
        let r = F.run (config target) in
        let seconds = Ksurf.Clock.elapsed_s ~since:t0 in
        let hwm = vm_hwm_kb () in
        let heap_mb =
          float_of_int (Gc.quick_stat ()).Gc.top_heap_words
          *. float_of_int (Sys.word_size / 8)
          /. 1048576.0
        in
        Format.printf
          "  %7d requests: %6.2fs wall (%.0f req/s), p99 %.1f us, %d cgroup \
           storms, peak RSS %d kB, top heap %.1f MB@."
          r.F.completed seconds
          (if seconds > 0.0 then float_of_int r.F.completed /. seconds else 0.0)
          (r.F.p99 /. 1e3)
          (r.F.cgroup_creates + r.F.cgroup_destroys)
          hwm heap_mb;
        (target, r, seconds, hwm, heap_mb))
      targets
  in
  let hwm_of i = match List.nth rows i with _, _, _, h, _ -> h in
  let rss_ratio =
    if hwm_of 0 > 0 then float_of_int (hwm_of 1) /. float_of_int (hwm_of 0)
    else 0.0
  in
  Format.printf "  peak-RSS ratio (10x the requests): %.3fx — %s@." rss_ratio
    (if rss_ratio > 0.0 && rss_ratio <= 2.0 then "flat"
     else if rss_ratio = 0.0 then "unavailable"
     else "NOT FLAT");
  let json =
    let row_json (target, (r : F.result), seconds, hwm, heap_mb) =
      Printf.sprintf
        "    { \"request_target\": %d, \"completed\": %d, \"seconds\": %.6f, \
         \"requests_per_sec\": %.1f, \"p99_ns\": %.0f, \"cgroup_storms\": %d, \
         \"peak_rss_kb\": %d, \"top_heap_mb\": %.2f }"
        target r.F.completed seconds
        (if seconds > 0.0 then float_of_int r.F.completed /. seconds else 0.0)
        r.F.p99
        (r.F.cgroup_creates + r.F.cgroup_destroys)
        hwm heap_mb
    in
    Printf.sprintf
      "{\n\
      \  \"benchmark\": \"ktenant-memory-flatness\",\n\
      \  \"seed\": %d,\n\
      \  \"scale\": %S,\n\
      \  \"tenants\": 64,\n\
      \  \"churn_per_day\": 8.0,\n\
      \  \"policy\": \"docker\",\n\
      \  \"peak_rss_ratio\": %.3f,\n\
      \  \"rss_flat\": %b,\n\
      \  \"rows\": [\n%s\n  ]\n\
       }\n"
      seed
      (match scale with E.Quick -> "quick" | E.Full -> "full")
      rss_ratio
      (rss_ratio > 0.0 && rss_ratio <= 2.0)
      (String.concat ",\n" (List.map row_json rows))
  in
  Ksurf.Fileio.write_atomic ~path:"BENCH_tenancy.json" (fun oc ->
      output_string oc json);
  Format.printf "  wrote BENCH_tenancy.json@.";
  (* The Streamstat claim is unconditional, so gate on it: a 10x
     request count must not double the peak RSS.  (0 = /proc absent;
     don't fail platforms that can't measure.) *)
  if rss_ratio > 2.0 then exit 1

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the simulator core.                     *)

let micro_tests () =
  let open Bechamel in
  let open Ksurf in
  let prng_test =
    Test.make ~name:"prng-uniform"
      (Staged.stage
         (let rng = Prng.create 1 in
          fun () -> ignore (Prng.uniform rng)))
  in
  let heap_test =
    Test.make ~name:"heap-push-pop-64"
      (Staged.stage (fun () ->
           let h = Ksurf_sim.Heap.create () in
           for i = 0 to 63 do
             Ksurf_sim.Heap.push h ~time:(float_of_int (i * 37 mod 64)) ~seq:i ~pid:0 i
           done;
           while not (Ksurf_sim.Heap.is_empty h) do
             ignore (Ksurf_sim.Heap.top h);
             Ksurf_sim.Heap.drop h
           done))
  in
  let engine_test =
    Test.make ~name:"engine-spawn-run-100-events"
      (Staged.stage (fun () ->
           let engine = Engine.create ~seed:1 () in
           Engine.spawn engine (fun () ->
               for _ = 1 to 100 do
                 Engine.delay 10.0
               done);
           Engine.run engine))
  in
  let lock_test =
    Test.make ~name:"contended-lock-8-procs"
      (Staged.stage (fun () ->
           let engine = Engine.create ~seed:1 () in
           let lock = Lock.create ~engine ~name:"bench" in
           for _ = 1 to 8 do
             Engine.spawn engine (fun () ->
                 for _ = 1 to 16 do
                   Lock.with_hold lock 5.0
                 done)
           done;
           Engine.run engine))
  in
  let syscall_test =
    let spec = Option.get (Syscalls.by_name "open") in
    let rng = Prng.create 2 in
    Test.make ~name:"syscall-exec-open"
      (Staged.stage (fun () ->
           let engine = Engine.create ~seed:1 () in
           let kernel =
             Instance.boot ~engine ~config:Kernel_config.quiet ~id:0 ~cores:4
               ~mem_mb:1024 ()
           in
           let arg = Arg.generate spec.Spec.arg_model rng in
           let ctx = { Instance.core = 0; tenant = 0; key = 0; cgroup = None } in
           Engine.spawn engine (fun () ->
               Instance.exec_program kernel ctx (spec.Spec.ops arg));
           Engine.run engine))
  in
  let kde_test =
    let rng = Prng.create 3 in
    let samples = Array.init 256 (fun _ -> Prng.float rng 1000.0) in
    Test.make ~name:"kde-curve-256"
      (Staged.stage (fun () -> ignore (Kde.curve ~points:32 samples)))
  in
  let coverage_test =
    let rng = Prng.create 4 in
    let prog = Program.random rng ~id:0 ~min_len:8 ~max_len:8 in
    Test.make ~name:"coverage-of-program-8"
      (Staged.stage (fun () -> ignore (Coverage.of_program prog)))
  in
  let quantile_test =
    let rng = Prng.create 5 in
    let samples = Array.init 4096 (fun _ -> Prng.float rng 1e6) in
    Test.make ~name:"quantile-p99-4096"
      (Staged.stage (fun () -> ignore (Quantile.p99 samples)))
  in
  [
    prng_test;
    heap_test;
    engine_test;
    lock_test;
    syscall_test;
    kde_test;
    coverage_test;
    quantile_test;
  ]

(* Engine throughput: one sizeable mixed workload (timers + a contended
   lock), timed on the monotonic clock with [Gc.minor_words] read on
   either side.  Events/sec is machine-dependent context;
   allocations/event is the portable number — it moves when someone adds
   a box to the hot path, whatever the machine.

   The headline divides by events the engine *executed*, on an
   unobserved engine — the denominator every other allocation figure in
   the repo (the ledger's [sim.engine.words_per_event], the multi-domain
   rows below) uses.  A second run with a counting probe attached is
   reported under its own names ([probe_events],
   [minor_words_per_probe_event]): a probe sees several events per
   executed one, so the two rates are not comparable.

   The multi-domain section replays the same workload, unobserved, on
   1/2/4/8 concurrent domains (one independent engine per domain — the
   kpar sweep shape), under the same per-domain minor-heap sizing
   Pool.create applies.  It is weak scaling: each domain runs the
   identical workload, so aggregate events/sec should grow toward
   min(domains, cores)x and — the regression this section exists to
   catch — must never *fall* as domains are added, which is what the
   stop-the-world minor-GC rendezvous did before the pool sized
   per-domain minor arenas (per-domain allocation makes each domain's
   arena fill independently, and every fill stops all domains). *)
let bench_procs = 16
let bench_steps = 2000

(* One engine's worth of work, run on the calling domain.  [probe]
   attaches a counting probe and counts the events it sees; otherwise
   the count is of executed events.  [Gc.minor_words] is per-domain in
   OCaml 5, so the caller reads the delta on its own domain. *)
let engine_workload ~probe () =
  let probe_events = ref 0 in
  let engine = Ksurf.Engine.create ~seed:7 () in
  if probe then Ksurf.Engine.add_probe engine (fun _ -> incr probe_events);
  let lock = Ksurf.Lock.create ~engine ~name:"bench.engine" in
  for _ = 1 to bench_procs do
    Ksurf.Engine.spawn engine (fun () ->
        for i = 1 to bench_steps do
          if i mod 8 = 0 then Ksurf.Lock.with_hold lock 5.0
          else Ksurf.Engine.delay 10.0
        done)
  done;
  let w0 = Gc.minor_words () in
  Ksurf.Engine.run engine;
  let minor_words = Gc.minor_words () -. w0 in
  let events =
    if probe then !probe_events else Ksurf.Engine.events_executed engine
  in
  (events, minor_words)

let run_engine_bench () =
  let per_event words n = if n > 0 then words /. float_of_int n else 0.0 in
  Gc.compact ();
  let t0 = Ksurf.Clock.now_s () in
  let n, minor_words = engine_workload ~probe:false () in
  let seconds = Ksurf.Clock.elapsed_s ~since:t0 in
  let events_per_sec =
    if seconds > 0.0 then float_of_int n /. seconds else 0.0
  in
  let words_per_event = per_event minor_words n in
  let probe_n, probe_words = engine_workload ~probe:true () in
  let words_per_probe_event = per_event probe_words probe_n in
  Format.printf
    "@.Engine throughput (%d procs x %d steps, unobserved):@.  %d executed \
     events in %.3fs (%.0f events/s), %.1f minor words/executed event@.  \
     with a counting probe: %d probe events, %.1f minor words/probe event@."
    bench_procs bench_steps n seconds events_per_sec words_per_event probe_n
    words_per_probe_event;
  (* Multi-domain rows: one independent engine per domain, unobserved,
     under the pool's GC regime. *)
  Ksurf.Pool.tune_minor_heap ();
  let domain_counts = [ 1; 2; 4; 8 ] in
  (* Several engine-runs per domain: one run is ~10ms, and Domain.spawn
     is a stop-the-world event of its own — without the repetition the
     rows would measure spawn latency, not engine throughput. *)
  let iters = 12 in
  let repeated () =
    let events = ref 0 and words = ref 0.0 in
    for _ = 1 to iters do
      let e, w = engine_workload ~probe:false () in
      events := !events + e;
      words := !words +. w
    done;
    (!events, !words)
  in
  Format.printf "Multi-domain engine throughput (weak scaling, unobserved):@.";
  let md_rows =
    List.map
      (fun domains ->
        Gc.compact ();
        let t0 = Ksurf.Clock.now_s () in
        let others =
          List.init (domains - 1) (fun _ ->
              Domain.spawn (fun () ->
                  Ksurf.Pool.tune_minor_heap ();
                  repeated ()))
        in
        let first = repeated () in
        let results = first :: List.map Domain.join others in
        let seconds = Ksurf.Clock.elapsed_s ~since:t0 in
        let events = List.fold_left (fun a (e, _) -> a + e) 0 results in
        let words = List.fold_left (fun a (_, w) -> a +. w) 0.0 results in
        let eps =
          if seconds > 0.0 then float_of_int events /. seconds else 0.0
        in
        let wpe = if events > 0 then words /. float_of_int events else 0.0 in
        Format.printf
          "  domains=%d  %8d events in %.3fs  (%.0f events/s aggregate, %.1f \
           minor words/event)@."
          domains events seconds eps wpe;
        (domains, events, seconds, eps, wpe))
      domain_counts
  in
  let json =
    let md_json (domains, events, seconds, eps, wpe) =
      Printf.sprintf
        "    { \"domains\": %d, \"events\": %d, \"seconds\": %.6f, \
         \"events_per_sec\": %.1f, \"minor_words_per_event\": %.3f }"
        domains events seconds eps wpe
    in
    Printf.sprintf
      "{\n\
      \  \"benchmark\": \"engine-core\",\n\
      \  \"procs\": %d,\n\
      \  \"steps_per_proc\": %d,\n\
      \  \"host_cores\": %d,\n\
      \  \"events\": %d,\n\
      \  \"seconds\": %.6f,\n\
      \  \"events_per_sec\": %.1f,\n\
      \  \"minor_words\": %.0f,\n\
      \  \"minor_words_per_event\": %.3f,\n\
      \  \"probe_events\": %d,\n\
      \  \"minor_words_per_probe_event\": %.3f,\n\
      \  \"multi_domain\": [\n%s\n  ]\n\
       }\n"
      bench_procs bench_steps
      (Domain.recommended_domain_count ())
      n seconds events_per_sec minor_words words_per_event probe_n
      words_per_probe_event
      (String.concat ",\n" (List.map md_json md_rows))
  in
  Ksurf.Fileio.write_atomic ~path:"BENCH_engine.json" (fun oc ->
      output_string oc json);
  Format.printf "  wrote BENCH_engine.json@."

let run_micro () =
  let open Bechamel in
  let open Toolkit in
  Format.printf "Microbenchmarks (Bechamel, OLS ns/run):@.@.";
  let test = Test.make_grouped ~name:"ksurf" (micro_tests ()) in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some (estimate :: _) -> rows := (name, estimate) :: !rows
      | Some [] | None -> rows := (name, nan) :: !rows)
    results;
  List.iter
    (fun (name, estimate) ->
      Format.printf "  %-40s %12.1f ns/run@." name estimate)
    (List.sort compare !rows);
  run_engine_bench ()

(* ------------------------------------------------------------------ *)

(* Selectors: every Experiments.tables name, plus the benches above and
   "all" (every table); "quick"/"full" pick the scale.  Anything else —
   a typo, a malformed number — exits 2 with the usage line. *)
let selectors =
  List.map (fun (t : E.table) -> t.E.name) E.tables
  @ [ "micro"; "sweep"; "tenancy"; "all" ]

(* One line on stderr, then exit 2. *)
let die fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf
        "bench: %s (usage: main.exe [SELECTOR...] [quick|full] [--jobs N] \
         [--gate-speedup X]; selectors: %s)\n"
        m
        (String.concat " " selectors);
      exit 2)
    fmt

let number flag parse s =
  match parse s with Some v -> v | None -> die "%s expects a number, got %S" flag s

let () =
  let jobs = ref None and gate_speedup = ref None in
  let quick = ref false and selected = ref [] in
  let rec parse = function
    | [] -> ()
    | ("--jobs" | "-j") :: n :: rest ->
        jobs := Some (max 1 (number "--jobs" int_of_string_opt n));
        parse rest
    | a :: rest when String.starts_with ~prefix:"--jobs=" a ->
        parse ("--jobs" :: String.sub a 7 (String.length a - 7) :: rest)
    | "--gate-speedup" :: x :: rest ->
        gate_speedup := Some (number "--gate-speedup" float_of_string_opt x);
        parse rest
    | ("quick" | "full") as s :: rest ->
        if s = "quick" then quick := true;
        parse rest
    | a :: rest when List.mem a selectors ->
        selected := a :: !selected;
        parse rest
    | a :: _ -> die "unknown argument %S" a
  in
  parse (List.tl (Array.to_list Sys.argv));
  let scale = if !quick then E.Quick else E.Full in
  let selected = !selected in
  let seed = 42 in
  let wants name = selected = [] || List.mem name selected in
  let wants_table (t : E.table) = wants t.E.name || List.mem "all" selected in
  if List.exists wants_table E.tables then
    Ksurf.Pool.with_pool ~jobs:(Ksurf.Pool.resolve_jobs ?cli:!jobs ()) (fun pool ->
        let corpus =
          Lazy.from_val
            (timed "corpus generation" (fun () -> E.default_corpus ~seed scale))
        in
        List.iter
          (fun (t : E.table) ->
            if wants_table t then
              timed t.E.name (fun () ->
                  t.E.render ~seed ~scale ~corpus ~pool Format.std_formatter))
          E.tables);
  if List.mem "sweep" selected then
    timed "sweep" (fun () -> run_sweep ~seed ~scale ~gate_speedup:!gate_speedup);
  if List.mem "tenancy" selected then
    timed "tenancy" (fun () -> run_tenancy ~seed ~scale);
  if wants "micro" then timed "micro" run_micro
