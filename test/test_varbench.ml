open Ksurf

let quiet = Kernel_config.quiet

let tiny_corpus =
  lazy
    (Generator.run
       ~params:{ Generator.default_params with Generator.target_programs = 8 }
       ())
      .Generator.corpus

let tiny_env ?(kind = Env.Native) ?(units = 1) () =
  let engine = Engine.create ~seed:11 () in
  (engine, Env.deploy ~engine ~kernel_config:quiet kind (Partition.table1 units))

(* --- harness ----------------------------------------------------------- *)

let run_tiny () =
  let _, env = tiny_env () in
  let corpus = Lazy.force tiny_corpus in
  let params = { Harness.iterations = 3; warmup_iterations = 1 } in
  (corpus, Harness.run ~env ~corpus ~params ())

let test_harness_site_count () =
  let corpus, result = run_tiny () in
  Alcotest.(check int) "one site per corpus call"
    (Corpus.total_calls corpus)
    (Array.length result.Harness.sites)

let test_harness_sample_counts () =
  let _, result = run_tiny () in
  Array.iter
    (fun (site : Harness.site) ->
      Alcotest.(check int) "ranks x iterations"
        (result.Harness.ranks * result.Harness.iterations)
        (Streamstat.count site.Harness.stats))
    result.Harness.sites

let test_harness_latencies_positive () =
  let _, result = run_tiny () in
  Array.iter
    (fun (site : Harness.site) ->
      if Streamstat.count site.Harness.stats > 0 then
        if Streamstat.min_value site.Harness.stats <= 0.0 then
          Alcotest.fail "non-positive latency")
    result.Harness.sites

let test_harness_wall_time () =
  let _, result = run_tiny () in
  Alcotest.(check bool) "positive span" true (result.Harness.wall_time_ns > 0.0)

let test_total_invocations () =
  let corpus, result = run_tiny () in
  Alcotest.(check int) "total"
    (Corpus.total_calls corpus * 64 * 3)
    (Harness.total_invocations result)

(* --- study ------------------------------------------------------------- *)

let test_site_stats_ordering () =
  let _, result = run_tiny () in
  Array.iter
    (fun s ->
      Alcotest.(check bool) "median <= p99" true
        (s.Study.median <= s.Study.p99 +. 1e-9);
      Alcotest.(check bool) "p99 <= max" true (s.Study.p99 <= s.Study.max +. 1e-9))
    (Study.site_stats result)

let test_bucket_row_consistency () =
  let _, result = run_tiny () in
  let stats = Study.site_stats result in
  let med = Study.bucket_row Study.Median stats in
  let mx = Study.bucket_row Study.Max stats in
  (* Medians are never slower than maxima: every cumulative column of the
     median row dominates the max row. *)
  Alcotest.(check bool) "median row dominates" true
    (med.Buckets.le_1ms >= mx.Buckets.le_1ms -. 1e-9)

let test_filter_by_native_median () =
  let _, result = run_tiny () in
  let stats = Study.site_stats result in
  let none = Study.filter_by_native_median ~native:stats ~min_median:infinity stats in
  Alcotest.(check int) "infinite threshold keeps nothing" 0 (Array.length none);
  let all = Study.filter_by_native_median ~native:stats ~min_median:0.0 stats in
  Alcotest.(check int) "zero threshold keeps all" (Array.length stats)
    (Array.length all)

let test_p99_by_category_covers_all () =
  let _, result = run_tiny () in
  let stats = Study.site_stats result in
  let by_cat = Study.p99_by_category stats in
  Alcotest.(check int) "six categories" 6 (List.length by_cat);
  let total = List.fold_left (fun acc (_, a) -> acc + Array.length a) 0 by_cat in
  Alcotest.(check bool) "multi-category counting" true
    (total >= Array.length stats)

let test_statistic_names () =
  Alcotest.(check string) "median" "median" (Study.statistic_name Study.Median);
  Alcotest.(check string) "p99" "p99" (Study.statistic_name Study.P99);
  Alcotest.(check string) "max" "max" (Study.statistic_name Study.Max)

(* --- noise ------------------------------------------------------------- *)

let test_noise_issues_calls () =
  let engine, env = tiny_env ~units:4 () in
  let corpus = Lazy.force tiny_corpus in
  let h = Noise.start ~env ~corpus ~ranks:[ 0; 1; 2 ] () in
  Engine.run ~until:1e6 engine;
  Alcotest.(check bool) "noise ran" true (h.Retry.issued > 0);
  (* Accounting is purely per-handle: a second stream starts from zero
     regardless of what earlier streams issued. *)
  let engine2, env2 = tiny_env ~units:4 () in
  let h2 = Noise.start ~env:env2 ~corpus ~ranks:[ 0 ] () in
  Alcotest.(check int) "fresh handle starts at zero" 0 (h2.Retry.issued);
  Engine.run ~until:1e5 engine2;
  Alcotest.(check bool) "independent of first stream" true
    (h2.Retry.issued < h.Retry.issued)

let test_noise_rank_validation () =
  let _, env = tiny_env () in
  let corpus = Lazy.force tiny_corpus in
  Alcotest.(check bool) "bad rank rejected" true
    (try
       ignore (Noise.start ~env ~corpus ~ranks:[ 1000 ] () : Retry.counters);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "site count" `Quick test_harness_site_count;
    Alcotest.test_case "sample counts" `Quick test_harness_sample_counts;
    Alcotest.test_case "latencies positive" `Quick test_harness_latencies_positive;
    Alcotest.test_case "wall time" `Quick test_harness_wall_time;
    Alcotest.test_case "total invocations" `Quick test_total_invocations;
    Alcotest.test_case "stats ordering" `Quick test_site_stats_ordering;
    Alcotest.test_case "bucket consistency" `Quick test_bucket_row_consistency;
    Alcotest.test_case "native-median filter" `Quick test_filter_by_native_median;
    Alcotest.test_case "p99 by category" `Quick test_p99_by_category_covers_all;
    Alcotest.test_case "statistic names" `Quick test_statistic_names;
    Alcotest.test_case "noise issues calls" `Quick test_noise_issues_calls;
    Alcotest.test_case "noise rank validation" `Quick test_noise_rank_validation;
  ]

let test_harness_deterministic () =
  let corpus = Lazy.force tiny_corpus in
  let run () =
    let _, env = tiny_env () in
    let params = { Harness.iterations = 2; warmup_iterations = 0 } in
    let result = Harness.run ~env ~corpus ~params () in
    Array.map
      (fun (s : Harness.site) -> Streamstat.total s.Harness.stats)
      result.Harness.sites
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bitwise identical latencies" true (a = b)

let test_barrier_synchronises_ranks () =
  (* All ranks collect the same number of samples per site even though
     individual programs take wildly different times per rank: the
     barrier holds stragglers together. *)
  let _, env = tiny_env ~kind:(Env.Kvm Virt_config.default) ~units:64 () in
  let corpus = Lazy.force tiny_corpus in
  let params = { Harness.iterations = 2; warmup_iterations = 0 } in
  let result = Harness.run ~env ~corpus ~params () in
  Array.iter
    (fun (s : Harness.site) ->
      Alcotest.(check int) "uniform sample count" (64 * 2)
        (Streamstat.count s.Harness.stats))
    result.Harness.sites

let suite =
  suite
  @ [
      Alcotest.test_case "harness deterministic" `Slow test_harness_deterministic;
      Alcotest.test_case "barrier synchronises ranks" `Slow
        test_barrier_synchronises_ranks;
    ]
