open Ksurf
module Plan = Fault_plan
module Determinism = Ksurf_analysis.Determinism
module Sanitizer = Ksurf_analysis.Sanitizer

let tiny_corpus =
  lazy
    (Generator.run
       ~params:
         { Generator.default_params with Generator.seed = 9; target_programs = 6 }
       ())
      .Generator.corpus

let deploy ?(kind = Env.Native) ?(units = 2) ~seed () =
  let engine = Engine.create ~seed () in
  let env = Env.deploy ~engine kind (Partition.table1 units) in
  (engine, env)

let small_params = { Harness.iterations = 3; warmup_iterations = 1 }

(* --- plan language ----------------------------------------------------- *)

let test_presets_parse () =
  List.iter
    (fun (name, plan) ->
      Alcotest.(check bool)
        (name ^ " non-empty") true
        (plan.Plan.actions <> []))
    Plan.presets;
  Alcotest.(check bool) "unknown preset" true (Plan.preset "nope" = None)

let test_plan_roundtrip () =
  List.iter
    (fun (name, plan) ->
      match Plan.of_string (Plan.to_string plan) with
      | Error e -> Alcotest.failf "%s does not round-trip: %s" name e
      | Ok plan' ->
          Alcotest.(check bool) (name ^ " round-trips") true (plan = plan'))
    Plan.presets

let test_plan_parse_errors () =
  (match Plan.of_string "not-a-keyword 1 2 3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk accepted");
  match Plan.of_string "# only comments\n\n" with
  | Ok p -> Alcotest.(check bool) "empty plan" true (p.Plan.actions = [])
  | Error e -> Alcotest.failf "comments rejected: %s" e

(* Both plan decoders are total: arbitrary bytes and mutated preset
   text decode to [Ok] or [Error], never an exception.  Whatever they
   accept reaches a [to_string] fixed point, and an unmutated preset
   round-trips byte for byte. *)
let preset_texts =
  List.map (fun (_, p) -> Plan.to_string p) Plan.presets
  @ List.map (fun (_, p) -> Durplan.to_string p) Durplan.presets

let mutate text edits =
  let b = Bytes.of_string text in
  let n = Bytes.length b in
  List.iter (fun (i, c) -> if n > 0 then Bytes.set b (i mod n) c) edits;
  Bytes.to_string b

let plan_text =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      oneof
        [
          string;
          map2 mutate (oneofl preset_texts)
            (list_size (0 -- 6)
               (pair nat (oneofl [ '='; ' '; '\n'; '#'; 'x'; '-'; '.'; '1' ])));
        ])

let qcheck_plan_decoders_total =
  QCheck.Test.make ~name:"plan decoders total" ~count:1000 plan_text (fun s ->
      let fixed of_string to_string =
        match of_string s with
        | Error _ -> None
        | Ok p ->
            let text = to_string p in
            (match of_string text with
            | Ok p' when to_string p' = text -> ()
            | _ -> QCheck.Test.fail_reportf "no fixed point: %S" text);
            Some text
      in
      let plan = fixed Plan.of_string Plan.to_string in
      let durplan = fixed Durplan.of_string Durplan.to_string in
      (not (List.mem s preset_texts)) || plan = Some s || durplan = Some s)

let test_scale () =
  let mixed = Option.get (Plan.preset "mixed") in
  Alcotest.(check bool) "zero dose injects nothing" true
    ((Plan.scale 0.0 mixed).Plan.actions = []);
  let doubled = Plan.scale 2.0 mixed in
  Alcotest.(check bool) "doubling keeps every action" true
    (List.length doubled.Plan.actions = List.length mixed.Plan.actions);
  List.iter
    (fun a ->
      match a with
      | Plan.Syscall_failures { rates; _ } ->
          List.iter
            (fun (_, r) ->
              Alcotest.(check bool) "rates stay probabilities" true
                (r >= 0.0 && r <= 1.0))
            rates
      | _ -> ())
    (Plan.scale 100.0 mixed).Plan.actions;
  Alcotest.(check bool) "negative dose rejected" true
    (try
       ignore (Plan.scale (-1.0) mixed);
       false
     with Invalid_argument _ -> true)

(* --- injection mechanics ----------------------------------------------- *)

let faulted_run ~seed ~plan ?(kind = Env.Native) ?straggler_timeout_ns
    ?(probe = fun _ -> ()) () =
  let engine, env = deploy ~kind ~seed () in
  Engine.add_probe engine probe;
  let kf = Kfault.arm ~env ~plan ~seed () in
  let result =
    Harness.run ~env
      ~corpus:(Lazy.force tiny_corpus)
      ~params:small_params ?straggler_timeout_ns ()
  in
  Kfault.disarm kf;
  (result, kf)

let test_injections_fire_and_are_probed () =
  let injected = ref 0 in
  let _, kf =
    faulted_run ~seed:5
      ~plan:(Option.get (Plan.preset "mixed"))
      ~probe:(function Engine.Injected _ -> incr injected | _ -> ())
      ()
  in
  Alcotest.(check bool) "counters ticked" true (Kfault.total_injections kf > 0);
  (* Every firing must be visible to ksan through the probe stream. *)
  Alcotest.(check int) "probe saw every injection"
    (Kfault.total_injections kf) !injected

let test_syscall_faults_retried () =
  let result, kf =
    faulted_run ~seed:6 ~plan:(Option.get (Plan.preset "syscalls")) ()
  in
  Alcotest.(check bool) "faults injected" true
    ((Kfault.stats kf).Kfault.syscall_faults > 0);
  Alcotest.(check bool) "harness retried them" true
    (result.Harness.transient_retries > 0);
  Alcotest.(check bool) "run not degraded by transients" false
    result.Harness.degraded

let test_disarm_restores_stock () =
  let plan = Option.get (Plan.preset "mixed") in
  let baseline () =
    let engine, env = deploy ~seed:7 () in
    ignore engine;
    let kf = Kfault.arm ~env ~plan ~seed:7 () in
    Kfault.disarm kf;
    (* Armed-then-disarmed before running: stock behaviour, so a fresh
       faulted run and a never-armed run must inject nothing alike. *)
    let result =
      Harness.run ~env ~corpus:(Lazy.force tiny_corpus) ~params:small_params ()
    in
    (result.Harness.transient_retries, Kfault.total_injections kf)
  in
  let retries, injections = baseline () in
  Alcotest.(check int) "no retries after disarm" 0 retries;
  Alcotest.(check int) "no injections after disarm" 0 injections

(* --- harness robustness ------------------------------------------------ *)

let test_varbench_crash_degrades () =
  let result, _ =
    faulted_run ~seed:8 ~plan:(Option.get (Plan.preset "crashy")) ()
  in
  Alcotest.(check bool) "degraded" true result.Harness.degraded;
  Alcotest.(check int) "one rank lost"
    (result.Harness.ranks - 1)
    result.Harness.survivors;
  Alcotest.(check bool) "crashed rank recorded" true
    (result.Harness.dropped_ranks = [ 1 ]);
  (* Survivors kept collecting samples after the barrier shrank. *)
  Alcotest.(check bool) "survivors finished" true
    (Harness.total_invocations result > 0)

let test_straggler_timeout_no_false_positives () =
  (* A healthy faulted run with a watchdog armed: nobody stalls, so
     nobody may be dropped. *)
  let result, _ =
    faulted_run ~seed:9
      ~plan:(Option.get (Plan.preset "storms"))
      ~straggler_timeout_ns:1e6 ()
  in
  Alcotest.(check bool) "no spurious drops" false result.Harness.degraded

let test_straggler_timeout_validated () =
  let _, env = deploy ~seed:10 () in
  Alcotest.(check bool) "non-positive timeout rejected" true
    (try
       ignore
         (Harness.run ~env
            ~corpus:(Lazy.force tiny_corpus)
            ~params:small_params ~straggler_timeout_ns:0.0 ());
       false
     with Invalid_argument _ -> true)

let tail_config =
  {
    Runner.default_config with
    Runner.requests = 120;
    seed = 3;
    units = 2;
    unit_cores = 4;
    unit_mem_mb = 2048;
  }

let tail_run ~plan () =
  let app = Option.get (Apps.by_name "silo") in
  Runner.run_single_node ~app ~kind:Env.Native ~contended:false
    ~config:tail_config
    ~on_env:(fun env ->
      ignore (Kfault.arm ~env ~plan ~seed:tail_config.Runner.seed () : Kfault.t))
    ()

let test_tailbench_crash_restart () =
  let result = tail_run ~plan:(Option.get (Plan.preset "crashy")) () in
  Alcotest.(check int) "one crash" 1 result.Runner.crashes;
  Alcotest.(check int) "worker came back" 1 result.Runner.restarts;
  Alcotest.(check bool) "restart means not degraded" false
    result.Runner.degraded;
  Alcotest.(check bool) "requests still served" true (result.Runner.count > 0)

let test_tailbench_permanent_crash () =
  let crash =
    {
      Plan.name = "perma";
      actions =
        [ Plan.Rank_crash { rank = 0; at_ns = 1e6; restart_after_ns = None } ];
    }
  in
  let result = tail_run ~plan:crash () in
  Alcotest.(check bool) "degraded" true result.Runner.degraded;
  Alcotest.(check int) "one survivor fewer"
    (tail_config.Runner.unit_cores - 1)
    result.Runner.survivors;
  Alcotest.(check bool) "survivors kept serving" true (result.Runner.count > 0)

(* --- determinism under injection --------------------------------------- *)

let test_faulted_run_replays_bit_identically () =
  let plan = Option.get (Plan.preset "crashy") in
  let result =
    Determinism.check
      ~run:(fun ~probe ->
        ignore (faulted_run ~seed:11 ~plan ~probe () : Harness.result * Kfault.t))
      ()
  in
  Alcotest.(check bool) "events observed" true (result.Determinism.events_first > 0);
  Alcotest.(check bool) "hashes equal" true (Determinism.deterministic result)

let test_different_seed_differs () =
  let plan = Option.get (Plan.preset "mixed") in
  let hash seed =
    let h = ref 0 in
    let _ =
      faulted_run ~seed ~plan
        ~probe:(fun info ->
          h :=
            Stable_hash.combine !h
              (Stable_hash.string (Determinism.describe info).Determinism.key))
        ()
    in
    !h
  in
  Alcotest.(check bool) "seed changes the injection stream" true
    (hash 1 <> hash 2)

let test_faulted_scenarios_clean () =
  List.iter
    (fun gate ->
      let r = Gates.run gate ~seed:13 in
      Alcotest.(check (list string))
        (Gates.name gate ^ " clean")
        []
        (r.Gates.failures
        @ List.map
            (fun f -> Format.asprintf "%a" Ksurf_analysis.Finding.pp f)
            r.Gates.findings))
    (List.filter
       (fun g -> List.mem (Gates.name g) [ "faulted-varbench"; "faulted-tailbench" ])
       Gates.stock)

(* --- dose-response ----------------------------------------------------- *)

let test_dose_response_directional () =
  let t =
    Experiments.Dose.run ~intensities:[ 0.0; 2.0 ]
      (Experiments.context Experiments.Quick)
  in
  let top env =
    match Experiments.Dose.degradation t ~env with
    | [ (_, base); (_, top) ] ->
        Alcotest.(check (float 1e-9)) (env ^ " baseline ratio") 1.0 base;
        top
    | _ -> Alcotest.failf "unexpected curve shape for %s" env
  in
  let native = top "native" and kvm = top "kvm-64" in
  Alcotest.(check bool) "faults degrade native p99" true (native > 1.0);
  (* The paper's partitioning claim under stress: the shared kernel
     amplifies injected contention, the partitioned one absorbs it. *)
  Alcotest.(check bool) "native degrades faster than kvm-64" true
    (native > kvm)

let suite =
  [
    Alcotest.test_case "presets parse" `Quick test_presets_parse;
    Alcotest.test_case "plan roundtrip" `Quick test_plan_roundtrip;
    Alcotest.test_case "plan parse errors" `Quick test_plan_parse_errors;
    QCheck_alcotest.to_alcotest qcheck_plan_decoders_total;
    Alcotest.test_case "scale" `Quick test_scale;
    Alcotest.test_case "injections probed" `Quick
      test_injections_fire_and_are_probed;
    Alcotest.test_case "syscall faults retried" `Quick
      test_syscall_faults_retried;
    Alcotest.test_case "disarm restores stock" `Quick test_disarm_restores_stock;
    Alcotest.test_case "varbench crash degrades" `Quick
      test_varbench_crash_degrades;
    Alcotest.test_case "straggler no false positives" `Quick
      test_straggler_timeout_no_false_positives;
    Alcotest.test_case "straggler timeout validated" `Quick
      test_straggler_timeout_validated;
    Alcotest.test_case "tailbench crash restart" `Quick
      test_tailbench_crash_restart;
    Alcotest.test_case "tailbench permanent crash" `Quick
      test_tailbench_permanent_crash;
    Alcotest.test_case "faulted replay identical" `Quick
      test_faulted_run_replays_bit_identically;
    Alcotest.test_case "seed changes stream" `Quick test_different_seed_differs;
    Alcotest.test_case "faulted scenarios clean" `Slow
      test_faulted_scenarios_clean;
    Alcotest.test_case "dose response directional" `Slow
      test_dose_response_directional;
  ]
