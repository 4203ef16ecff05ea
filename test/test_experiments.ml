open Ksurf
module E = Experiments

(* Experiment drivers at Quick scale: structural checks plus the key
   directional properties of the paper that survive the reduced sample
   sizes.  Shape-versus-paper comparisons at Full scale live in
   EXPERIMENTS.md and the bench harness. *)

let quick = E.context E.Quick

(* One statistic's bucket row of one deployment. *)
let bucket (t : E.Breakdown.t) label stat =
  List.assoc stat (List.assoc label t.rows)

let test_scale_parsing () =
  Alcotest.(check bool) "quick" true (E.scale_of_string "quick" = Some E.Quick);
  Alcotest.(check bool) "full" true (E.scale_of_string "full" = Some E.Full);
  Alcotest.(check bool) "junk" true (E.scale_of_string "junk" = None)

let test_default_corpus_deterministic () =
  let a = Corpus.to_string (E.default_corpus ~seed:7 E.Quick) in
  let b = Corpus.to_string (E.default_corpus ~seed:7 E.Quick) in
  Alcotest.(check string) "same corpus" a b

let test_table1 () =
  let t = E.Table1.run quick in
  Alcotest.(check int) "seven rows" 7 (List.length t);
  let vms, first = List.hd t in
  Alcotest.(check int) "first row 1 VM" 1 vms;
  Alcotest.(check int) "64 cores" 64 (Partition.total_cores first);
  let rendered = Format.asprintf "%a" E.Table1.pp t in
  Alcotest.(check bool) "renders" true (String.length rendered > 0)

let table2 = lazy (E.Breakdown.run E.Breakdown.table2 quick)

let test_table2_structure () =
  let t = Lazy.force table2 in
  Alcotest.(check (list string)) "env names" [ "native"; "kvm-64"; "docker-64" ]
    (List.map fst t.E.Breakdown.rows);
  List.iter
    (fun (_, buckets) ->
      Alcotest.(check (list string)) "statistics" [ "median"; "p99"; "max" ]
        (List.map (fun (s, _) -> Study.statistic_name s) buckets))
    t.E.Breakdown.rows;
  Alcotest.(check bool) "renders" true
    (String.length (Format.asprintf "%a" E.Breakdown.pp t) > 0)

let test_table2_virt_median_overhead () =
  (* The paper's first observation: native has more sub-1us medians than
     the 64-VM environment. *)
  let t = Lazy.force table2 in
  let native = bucket t "native" Study.Median
  and kvm = bucket t "kvm-64" Study.Median in
  Alcotest.(check bool) "native medians faster at 1us" true
    (native.Buckets.le_1us > kvm.Buckets.le_1us)

let test_table2_kvm_bounds_worst_case () =
  (* And the second: KVM bounds the tail — fewer max values above 10ms
     than native. *)
  let t = Lazy.force table2 in
  let native = bucket t "native" Study.Max and kvm = bucket t "kvm-64" Study.Max in
  Alcotest.(check bool) "kvm max above 10ms <= native's" true
    (kvm.Buckets.gt_10ms <= native.Buckets.gt_10ms)

let test_fig2_structure () =
  let t = E.Fig2.run quick in
  Alcotest.(check int) "7 vm counts x 6 categories" 42
    (List.length t.E.Fig2.cells);
  Alcotest.(check bool) "filter keeps a subset" true
    (t.E.Fig2.filtered_sites <= t.E.Fig2.total_sites);
  Alcotest.(check bool) "renders" true
    (String.length (Format.asprintf "%a" E.Fig2.pp t) > 0)

let test_table3_structure () =
  let t = E.Breakdown.run E.Breakdown.table3 quick in
  Alcotest.(check (list string)) "container counts"
    [ "1"; "2"; "4"; "8"; "16"; "32"; "64" ]
    (List.map fst t.E.Breakdown.rows);
  Alcotest.(check bool) "renders" true
    (String.length (Format.asprintf "%a" E.Breakdown.pp t) > 0)

let test_fig3_smoke () =
  let apps = List.filter_map Apps.by_name [ "silo" ] in
  let t = E.Fig3.run ~apps quick in
  Alcotest.(check int) "4 cells for one app" 4 (List.length t.E.Fig3.cells);
  (match E.Fig3.cell t ~app:"silo" ~kind:"kvm" ~contended:false with
  | Some r -> Alcotest.(check bool) "positive p99" true (r.Runner.p99 > 0.0)
  | None -> Alcotest.fail "missing cell");
  Alcotest.(check bool) "renders" true
    (String.length (Format.asprintf "%a" E.Fig3.pp t) > 0)

let test_fig4_smoke () =
  let apps = List.filter_map Apps.by_name [ "silo" ] in
  let t = E.Fig4.run ~apps quick in
  Alcotest.(check int) "4 cells" 4 (List.length t.E.Fig4.cells);
  (match E.Fig4.cell t ~app:"silo" ~kind:"docker" ~contended:true with
  | Some r -> Alcotest.(check bool) "positive runtime" true (r.Cluster.runtime_ns > 0.0)
  | None -> Alcotest.fail "missing cell");
  Alcotest.(check bool) "renders" true
    (String.length (Format.asprintf "%a" E.Fig4.pp t) > 0)

let test_fig4_paper_apps () =
  (* shore (no SSDs) and specjbb (JVM failures) are excluded, as in the
     paper. *)
  Alcotest.(check bool) "no shore" true
    (not (List.mem "shore" E.Fig4.paper_apps));
  Alcotest.(check bool) "no specjbb" true
    (not (List.mem "specjbb" E.Fig4.paper_apps));
  Alcotest.(check int) "six apps" 6 (List.length E.Fig4.paper_apps)

let test_ablation_quietest_variant_wins () =
  let t = E.Breakdown.run E.Breakdown.ablate quick in
  Alcotest.(check int) "five variants" 5 (List.length t.E.Breakdown.rows);
  let default = bucket t "default" Study.Max and off = bucket t "all-off" Study.Max in
  (* With every mechanism off, worst cases cannot be heavier. *)
  Alcotest.(check bool) "all-off has no heavier tail" true
    (off.Buckets.gt_10ms <= default.Buckets.gt_10ms);
  Alcotest.(check bool) "renders" true
    (String.length (Format.asprintf "%a" E.Breakdown.pp t) > 0)

let test_ablate_virt_monotone_interest () =
  let apps = List.filter_map Apps.by_name [ "silo" ] in
  let t = E.Ablate_virt.run ~apps quick in
  Alcotest.(check int) "four scales" 4 (List.length t.E.Ablate_virt.rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "kvm runtime positive" true (r.E.Ablate_virt.kvm_runtime_ns > 0.0))
    t.E.Ablate_virt.rows;
  Alcotest.(check bool) "renders" true
    (String.length (Format.asprintf "%a" E.Ablate_virt.pp t) > 0)

let suite =
  [
    Alcotest.test_case "scale parsing" `Quick test_scale_parsing;
    Alcotest.test_case "corpus deterministic" `Quick
      test_default_corpus_deterministic;
    Alcotest.test_case "table1" `Quick test_table1;
    Alcotest.test_case "table2 structure" `Slow test_table2_structure;
    Alcotest.test_case "table2 virt median overhead" `Slow
      test_table2_virt_median_overhead;
    Alcotest.test_case "table2 kvm bounds worst case" `Slow
      test_table2_kvm_bounds_worst_case;
    Alcotest.test_case "fig2 structure" `Slow test_fig2_structure;
    Alcotest.test_case "table3 structure" `Slow test_table3_structure;
    Alcotest.test_case "fig3 smoke" `Slow test_fig3_smoke;
    Alcotest.test_case "fig4 smoke" `Slow test_fig4_smoke;
    Alcotest.test_case "fig4 paper apps" `Quick test_fig4_paper_apps;
    Alcotest.test_case "ablation" `Slow test_ablation_quietest_variant_wins;
    Alcotest.test_case "ablate-virt" `Slow test_ablate_virt_monotone_interest;
  ]

let test_lightweight_presets () =
  Alcotest.(check int) "five technologies" 5 (List.length Lightweight.all);
  let fc = Lightweight.firecracker and kvm = Virt_config.default in
  Alcotest.(check bool) "firecracker cheaper exits" true
    (fc.Virt_config.exit_cost < kvm.Virt_config.exit_cost);
  Alcotest.(check bool) "nabla nearly exit-free" true
    (Lightweight.nabla.Virt_config.exits_per_syscall
    < 0.2 *. kvm.Virt_config.exits_per_syscall);
  Alcotest.(check bool) "kata proxies more" true
    (Lightweight.kata.Virt_config.exits_per_syscall
    > kvm.Virt_config.exits_per_syscall);
  Alcotest.(check bool) "gvisor intercepts everything" true
    (Lightweight.gvisor.Virt_config.exits_per_syscall >= 1.0)

let test_lwvm_experiment () =
  let t = E.Breakdown.run E.Breakdown.lwvm quick in
  Alcotest.(check int) "seven environments" 7 (List.length t.E.Breakdown.rows);
  (* Every virtualised environment bounds the worst case at least as
     well as Docker's shared kernel. *)
  let docker = bucket t "docker-64" Study.Max in
  List.iter
    (fun env ->
      let r = bucket t env Study.Max in
      Alcotest.(check bool) (env ^ " bounds the tail") true
        (r.Buckets.gt_10ms <= docker.Buckets.gt_10ms))
    [ "kvm-64"; "firecracker-64"; "kata-64"; "nabla-64"; "gvisor-64" ];
  Alcotest.(check bool) "renders" true
    (String.length (Format.asprintf "%a" E.Breakdown.pp t) > 0)

let suite =
  suite
  @ [
      Alcotest.test_case "lightweight presets" `Quick test_lightweight_presets;
      Alcotest.test_case "lwvm experiment" `Slow test_lwvm_experiment;
    ]

let test_locks_experiment () =
  let t = E.Locks.run quick in
  let envs =
    List.sort_uniq String.compare (List.map (fun r -> r.E.Locks.env) t.E.Locks.rows)
  in
  Alcotest.(check (list string)) "three environments"
    [ "kvm-64"; "kvm-8"; "native" ] envs;
  (* The surface-area claim at the lock level: the audit lock's mean
     wait shrinks as kernels shrink. *)
  let audit env =
    List.find
      (fun r -> r.E.Locks.env = env && r.E.Locks.lock = "audit")
      t.E.Locks.rows
  in
  Alcotest.(check bool) "audit wait shrinks with surface area" true
    ((audit "native").E.Locks.mean_wait_ns > (audit "kvm-64").E.Locks.mean_wait_ns);
  Alcotest.(check bool) "renders" true
    (String.length (Format.asprintf "%a" E.Locks.pp t) > 0)

let suite =
  suite @ [ Alcotest.test_case "locks experiment" `Slow test_locks_experiment ]

(* --- specialization study (kspec) ------------------------------------- *)

let specialize = lazy (E.Specialize.run quick)

let test_specialize_structure () =
  let t = Lazy.force specialize in
  Alcotest.(check (list string)) "arm names"
    [ "native-64"; "native-64-kspec"; "kvm-64" ]
    (List.map (fun (r : E.Specialize.row) -> r.E.Specialize.env) t.E.Specialize.rows);
  Alcotest.(check bool) "spec retains file-io" true
    (List.mem Category.File_io t.E.Specialize.spec.Kspec.retained);
  Alcotest.(check bool) "renders" true
    (String.length (Format.asprintf "%a" E.Specialize.pp t) > 0)

let test_specialize_recovers_variability () =
  (* The acceptance inequality: at the fixed default seed, per-tenant
     specialized kernels strictly beat the shared native kernel on the
     tail ratio, on absolute p99, and on both bucket rows. *)
  let t = Lazy.force specialize in
  let native = Option.get (E.Specialize.row t ~env:"native-64") in
  let spec = Option.get (E.Specialize.row t ~env:"native-64-kspec") in
  Alcotest.(check bool) "strictly lower tail ratio" true
    (spec.E.Specialize.tail_ratio < native.E.Specialize.tail_ratio);
  Alcotest.(check bool) "strictly lower p99" true
    (spec.E.Specialize.p99 < native.E.Specialize.p99);
  let bucket_leq (a : Buckets.row) (b : Buckets.row) =
    (* cumulative fractions: higher is better (more samples under each
       threshold).  The claim lives in the tail cells (>= 10us): [a] at
       least as good everywhere there and better somewhere.  The sub-us
       cell measures the non-contended fast path at one-cell granularity
       (quick scale has ~44 cells, so one boundary call moves it by
       ~2.3 points); allow it one cell of jitter instead of strictness. *)
    let tail_cells (r : Buckets.row) =
      [ r.Buckets.le_10us; r.Buckets.le_100us;
        r.Buckets.le_1ms; r.Buckets.le_10ms ]
    in
    a.Buckets.le_1us >= b.Buckets.le_1us -. 2.5
    && List.for_all2 (fun x y -> x >= y) (tail_cells a) (tail_cells b)
    && List.exists2 (fun x y -> x > y) (tail_cells a) (tail_cells b)
  in
  Alcotest.(check bool) "p99 buckets strictly better" true
    (bucket_leq spec.E.Specialize.p99_bucket native.E.Specialize.p99_bucket);
  Alcotest.(check bool) "max buckets strictly better" true
    (bucket_leq spec.E.Specialize.max_bucket native.E.Specialize.max_bucket)

let test_specialize_surface_and_denials () =
  let t = Lazy.force specialize in
  let native = Option.get (E.Specialize.row t ~env:"native-64") in
  let spec = Option.get (E.Specialize.row t ~env:"native-64-kspec") in
  Alcotest.(check bool) "surface area collapses" true
    (spec.E.Specialize.surface_area < 0.1 *. native.E.Specialize.surface_area);
  List.iter
    (fun (r : E.Specialize.row) ->
      Alcotest.(check int)
        (r.E.Specialize.env ^ " denials") 0 r.E.Specialize.denials)
    t.E.Specialize.rows

let suite =
  suite
  @ [
      Alcotest.test_case "specialize structure" `Slow test_specialize_structure;
      Alcotest.test_case "specialize recovers variability" `Slow
        test_specialize_recovers_variability;
      Alcotest.test_case "specialize surface and denials" `Slow
        test_specialize_surface_and_denials;
    ]
