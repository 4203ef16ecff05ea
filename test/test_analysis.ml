open Ksurf
module Finding = Ksurf_analysis.Finding
module Invariants = Ksurf_analysis.Invariants
module Determinism = Ksurf_analysis.Determinism
module Sanitizer = Ksurf_analysis.Sanitizer

let codes findings = List.map (fun (f : Finding.t) -> f.Finding.code) findings

(* --- invariants on synthetic event streams ---------------------------- *)

let test_invariants_scheduled_in_past () =
  let state = Invariants.create () in
  Invariants.on_event state (Engine.Scheduled { now = 10.0; at = 5.0; pid = 1 });
  Alcotest.(check (list string)) "flagged" [ "scheduled-in-past" ]
    (codes (Invariants.finish ~drained:false state))

(* The engine emits [Scheduled] before refusing a time, so the
   sanitizer sees the NaN and +infinity that [< now] lets through. *)
let test_invariants_non_finite_schedule () =
  List.iter
    (fun at ->
      let engine = Engine.create () in
      let state = Invariants.create () in
      Engine.add_probe engine (Invariants.on_event state);
      Alcotest.(check bool) (Printf.sprintf "engine refuses %g" at) true
        (try
           Engine.spawn ~at engine ignore;
           false
         with Invalid_argument _ -> true);
      Alcotest.(check (list string)) (Printf.sprintf "flagged %g" at)
        [ "scheduled-non-finite" ]
        (codes (Invariants.finish ~drained:false state)))
    [ nan; infinity ]

(* Tokens the engine never issues — 0, negative, past 2^30 — go
   through the same states as its own: a wake before any suspension, a
   suspension, a wake, a second wake and a reuse. *)
let test_invariants_token_edges () =
  List.iter
    (fun token ->
      let state = Invariants.create () in
      let suspend now =
        Invariants.on_event state (Engine.Suspended { now; pid = 1; token })
      in
      let wake now = Invariants.on_event state (Engine.Woken { now; pid = 1; token }) in
      wake 0.0;
      suspend 1.0;
      wake 2.0;
      wake 3.0;
      suspend 4.0;
      Alcotest.(check (list string)) (Printf.sprintf "token %d" token)
        [ "wake-without-suspend"; "double-wake"; "suspension-token-reused" ]
        (codes (Invariants.finish ~drained:true state)))
    [ 0; -1; 1 lsl 30; (1 lsl 30) + 12345; max_int ]

(* Stuck suspensions are reported sorted by message, so a token's
   digits, not its value or arrival order, place it. *)
let test_invariants_stuck_sorted () =
  let state = Invariants.create () in
  List.iter
    (fun token -> Invariants.on_event state (Engine.Suspended { now = 0.0; pid = 2; token }))
    [ 12; 3; -1; 1 lsl 30; 0; 100; 7 ];
  Invariants.on_event state (Engine.Suspended { now = 0.0; pid = 2; token = 5 });
  Invariants.on_event state (Engine.Woken { now = 1.0; pid = 2; token = 5 });
  Alcotest.(check (list string)) "sorted messages"
    (List.map
       (Printf.sprintf "suspension %d was never woken: a process is stuck")
       [ -1; 0; 100; 1 lsl 30; 12; 3; 7 ])
    (List.map
       (fun (f : Finding.t) -> f.Finding.message)
       (Invariants.finish ~drained:true state))

let test_invariants_double_wake () =
  let state = Invariants.create () in
  Invariants.on_event state (Engine.Suspended { now = 0.0; pid = 1; token = 1 });
  Invariants.on_event state (Engine.Woken { now = 1.0; pid = 1; token = 1 });
  Invariants.on_event state (Engine.Woken { now = 2.0; pid = 1; token = 1 });
  Alcotest.(check (list string)) "flagged" [ "double-wake" ]
    (codes (Invariants.finish ~drained:false state))

let test_invariants_wake_without_suspend () =
  let state = Invariants.create () in
  Invariants.on_event state (Engine.Woken { now = 1.0; pid = 1; token = 9 });
  Alcotest.(check (list string)) "flagged" [ "wake-without-suspend" ]
    (codes (Invariants.finish ~drained:false state))

let test_invariants_barrier_generation () =
  let state = Invariants.create () in
  let arrive generation arrived =
    Invariants.on_event state
      (Engine.Sync
         {
           now = 0.0;
           pid = 1;
           name = "bar";
           op = Engine.Barrier_arrive { generation; arrived; parties = 2 };
         })
  in
  arrive 2 1;
  arrive 1 2;
  Alcotest.(check (list string)) "regression flagged"
    [ "barrier-generation-regressed" ]
    (codes (Invariants.finish ~drained:false state))

let test_invariants_stuck_suspension () =
  let state = Invariants.create () in
  Invariants.on_event state (Engine.Suspended { now = 0.0; pid = 1; token = 3 });
  Alcotest.(check (list string)) "stuck at drain" [ "suspended-at-drain" ]
    (codes (Invariants.finish ~drained:true state));
  Alcotest.(check (list string)) "quiet when stopped early" []
    (codes (Invariants.finish ~drained:false state))

let test_invariants_clean_on_real_run () =
  (* A full simulated engine run satisfies every invariant. *)
  let state = Invariants.create () in
  Gates.Inversion.run ~seed:3 ~on_engine:(fun engine ->
      Engine.add_probe engine (Invariants.on_event state));
  Alcotest.(check bool) "events flowed" true (Invariants.events state > 0);
  Alcotest.(check (list string)) "clean" []
    (codes (Invariants.finish ~drained:true state))

(* --- determinism checker ---------------------------------------------- *)

let deterministic_run ~probe =
  let engine = Engine.create ~seed:11 () in
  Engine.add_probe engine probe;
  let lock = Lock.create ~engine ~name:"det" in
  for _ = 1 to 3 do
    Engine.spawn engine (fun () -> Lock.with_hold lock 5.0)
  done;
  Engine.run engine

let test_determinism_passes () =
  let result = Determinism.check ~run:deterministic_run () in
  Alcotest.(check bool) "deterministic" true (Determinism.deterministic result);
  Alcotest.(check bool) "events counted" true (result.Determinism.events_first > 0);
  Alcotest.(check int) "same event count" result.Determinism.events_first
    result.Determinism.events_second;
  Alcotest.(check (list string)) "no findings" []
    (codes (Determinism.to_findings result))

let test_determinism_catches_divergence () =
  (* A scenario that secretly changes between runs — the checker must
     pinpoint the first divergent event. *)
  let calls = ref 0 in
  let run ~probe =
    incr calls;
    let extra = if !calls > 1 then 1.0 else 0.0 in
    let engine = Engine.create () in
    Engine.add_probe engine probe;
    Engine.spawn engine (fun () -> Engine.delay (10.0 +. extra));
    Engine.run engine
  in
  let result = Determinism.check ~run () in
  Alcotest.(check bool) "divergence detected" false
    (Determinism.deterministic result);
  (match result.Determinism.divergence with
  | None -> Alcotest.fail "expected a divergence record"
  | Some d ->
      Alcotest.(check bool) "both runs present" true
        (d.Determinism.first <> None && d.Determinism.second <> None));
  Alcotest.(check (list string)) "one finding" [ "divergent-replay" ]
    (codes (Determinism.to_findings result))

(* The witness names each run's own event at the divergent index.  The
   engine overwrites one [Scheduled] block for every delay, so a
   checker that queued the events themselves would hold run 1's last
   schedule (at=40) in every slot and diverge at index 0. *)
let test_determinism_witness_is_run_one_event () =
  let calls = ref 0 in
  let run ~probe =
    incr calls;
    let second = !calls > 1 in
    let engine = Engine.create () in
    Engine.add_probe engine probe;
    Engine.spawn engine (fun () ->
        Engine.delay 10.0;
        Engine.delay (if second then 11.0 else 10.0);
        Engine.delay 10.0;
        Engine.delay 10.0);
    Engine.run engine
  in
  let result = Determinism.check ~run () in
  match result.Determinism.divergence with
  | None -> Alcotest.fail "expected a divergence record"
  | Some d ->
      (* spawn, execute, schedule(at=10), execute, then the second delay *)
      Alcotest.(check int) "index" 4 d.Determinism.index;
      Alcotest.(check (option string)) "run 1's event"
        (Some "t=10 pid=1 schedule(at=20)") d.Determinism.first;
      Alcotest.(check (option string)) "run 2's event"
        (Some "t=10 pid=1 schedule(at=21)") d.Determinism.second

(* Eight processes hold one lock for random spans drawn from the
   engine's stream, so each seed gives its own event stream. *)
let contended_run ~seed ~probe =
  let engine = Engine.create ~seed () in
  Engine.add_probe engine probe;
  let rng = Engine.rng engine in
  let lock = Lock.create ~engine ~name:"pool.lock" in
  for _ = 1 to 8 do
    Engine.spawn engine (fun () ->
        for _ = 1 to 500 do
          Lock.with_hold lock (float_of_int (1 + Prng.int rng 50))
        done)
  done;
  Engine.run engine

(* Two observed engines run at once as the cells of a 2-domain pool
   and hash exactly as each does alone: every engine fills its own
   event blocks, so neither domain overwrites the other's events. *)
let test_determinism_per_engine_under_pool () =
  let seeds = [ 1; 2 ] in
  let cell seed = Determinism.check ~run:(contended_run ~seed) () in
  let alone = List.map cell seeds in
  let pooled = Pool.with_pool ~jobs:2 (fun pool -> Pool.map ~pool cell seeds) in
  List.iter2
    (fun (a : Determinism.result) (p : Determinism.result) ->
      Alcotest.(check bool) "deterministic in the pool" true
        (Determinism.deterministic p);
      Alcotest.(check int) "events" a.Determinism.events_first p.Determinism.events_first;
      Alcotest.(check int) "hash as alone" a.Determinism.hash_first
        p.Determinism.hash_first)
    alone pooled;
  match alone with
  | [ a; b ] ->
      Alcotest.(check bool) "seeds differ" true
        (a.Determinism.hash_first <> b.Determinism.hash_first)
  | _ -> assert false

(* --- sanitizer orchestration ------------------------------------------ *)

let test_checks_of_string () =
  (match Sanitizer.checks_of_string "lockdep,determinism,invariants" with
  | Ok [ Sanitizer.Lockdep; Sanitizer.Determinism; Sanitizer.Invariants ] -> ()
  | _ -> Alcotest.fail "full selection should parse in order");
  (match Sanitizer.checks_of_string " lockdep , invariants " with
  | Ok [ Sanitizer.Lockdep; Sanitizer.Invariants ] -> ()
  | _ -> Alcotest.fail "whitespace should be tolerated");
  match Sanitizer.checks_of_string "lockdep,bogus" with
  | Error "bogus" -> ()
  | _ -> Alcotest.fail "unknown check should be reported by name"

let failures_and_findings (r : Gates.report) =
  r.Gates.failures
  @ List.map (Format.asprintf "%a" Finding.pp) r.Gates.findings

let test_stock_scenarios_clean () =
  (* Acceptance: every stock gate, all three sanitizers and its own
     checks, two seeds. *)
  List.iter
    (fun gate ->
      List.iter
        (fun seed ->
          let r = Gates.run gate ~seed in
          Alcotest.(check (list string))
            (Printf.sprintf "%s seed=%d clean" (Gates.name gate) seed)
            [] (failures_and_findings r);
          match r.Gates.replay with
          | Some replay ->
              Alcotest.(check bool) "probes saw traffic" true
                (replay.Determinism.events_first > 0)
          | None -> Alcotest.fail "gate crashed")
        [ 42; 7 ])
    Gates.stock

let test_inversion_scenario_flagged () =
  let r = Gates.run (module Gates.Inversion) ~seed:42 in
  let cycle_codes =
    List.filter (fun c -> c = "lock-order-cycle") (codes r.Gates.findings)
  in
  Alcotest.(check int) "exactly one cycle" 1 (List.length cycle_codes);
  Alcotest.(check bool) "errors present" true
    (Finding.errors r.Gates.findings <> [])

(* --- gate checks: a tampered result must FAIL ------------------------- *)

let test_drift_gate_fires () =
  (* Seed 7's run is short: a fixed trigger time never fired there. *)
  let r = Gates.Adaptive_drift.run ~seed:7 ~on_engine:ignore in
  Alcotest.(check int) "drifts" 1 r.Gates.Adaptive_drift.adaptive.Driftbench.drifts;
  Alcotest.(check (list string)) "all 13 checks pass" []
    (Gates.Adaptive_drift.check r)

let fails name failures =
  Alcotest.(check bool) (name ^ " yields a FAIL") true (failures <> [])

let test_tampered_tenancy () =
  let t = Gates.Tenancy.run ~seed:42 ~on_engine:ignore in
  Alcotest.(check (list string)) "untampered" [] (Gates.Tenancy.check t);
  fails "slo_met > measured"
    (Gates.Tenancy.check { t with Fleet.slo_met = t.Fleet.measured + 1 });
  fails "no tenant measured"
    (Gates.Tenancy.check { t with Fleet.measured = 0; slo_met = 0 })

let test_tampered_drift () =
  let d = Gates.Adaptive_drift.run ~seed:42 ~on_engine:ignore in
  let a = d.Gates.Adaptive_drift.adaptive in
  fails "swap count off by one"
    (Gates.Adaptive_drift.check
       {
         d with
         Gates.Adaptive_drift.adaptive =
           { a with Driftbench.swaps = a.Driftbench.swaps + 1 };
       })

let test_tampered_recovery () =
  let b = Gates.Recovered_bsp.run ~seed:42 ~on_engine:ignore in
  Alcotest.(check (list string)) "untampered" [] (Gates.Recovered_bsp.check b);
  let wedged =
    match b.Gates.Recovered_bsp.policies with
    | o :: rest -> { o with Supervisor.supersteps = 3 } :: rest
    | [] -> Alcotest.fail "no policies ran"
  in
  fails "one policy wedged"
    (Gates.Recovered_bsp.check { b with Gates.Recovered_bsp.policies = wedged })

let test_tampered_specialize () =
  let s = Gates.Specialized_varbench.run ~seed:42 ~on_engine:ignore in
  Alcotest.(check (list string)) "untampered" []
    (Gates.Specialized_varbench.check s);
  fails "denials > 0"
    (Gates.Specialized_varbench.check
       { s with Gates.Specialized_varbench.denials = 1 })

(* --- double_run: the gates' sanitized double run ------------------------ *)

let test_double_run_calls_twice () =
  let calls = ref 0 in
  let value, replay, findings =
    Sanitizer.double_run
      ~run:(fun ~on_engine ->
        incr calls;
        let engine = Engine.create ~seed:1 () in
        on_engine engine;
        Engine.spawn engine (fun () -> Engine.delay 5.0);
        Engine.run engine;
        !calls)
      ()
  in
  Alcotest.(check int) "run called exactly twice" 2 !calls;
  Alcotest.(check int) "second run's value returned" 2 value;
  Alcotest.(check bool) "replay identical" true
    (Determinism.deterministic replay);
  Alcotest.(check (list string)) "clean" [] (codes findings)

let test_double_run_static_once () =
  (* Lockdep attaches to the first run only, so the inversion's cycle is
     reported once although the scenario runs twice. *)
  let (), replay, findings =
    Sanitizer.double_run
      ~run:(fun ~on_engine ->
        Gates.Inversion.run ~seed:42 ~on_engine)
      ()
  in
  Alcotest.(check int) "exactly one cycle" 1
    (List.length (List.filter (( = ) "lock-order-cycle") (codes findings)));
  Alcotest.(check bool) "replay identical" true
    (Determinism.deterministic replay)

let test_double_run_divergence () =
  let calls = ref 0 in
  let (), replay, findings =
    Sanitizer.double_run
      ~run:(fun ~on_engine ->
        incr calls;
        let engine = Engine.create ~seed:1 () in
        on_engine engine;
        Engine.spawn engine (fun () -> Engine.delay (float_of_int !calls));
        Engine.run engine)
      ()
  in
  Alcotest.(check bool) "divergent" false (Determinism.deterministic replay);
  Alcotest.(check (list string)) "finding" [ "divergent-replay" ]
    (codes findings)

let test_finding_sort_and_csv () =
  let w = Finding.make ~severity:Finding.Warning ~check:"b" ~code:"w"
      ~message:"later" ()
  in
  let e =
    Finding.make ~severity:Finding.Error ~check:"a" ~code:"e" ~message:"first"
      ~witness:[ "line1"; "line2" ] ()
  in
  (match Finding.sort [ w; e ] with
  | [ f1; f2 ] ->
      Alcotest.(check string) "errors first" "e" f1.Finding.code;
      Alcotest.(check string) "warnings after" "w" f2.Finding.code
  | _ -> Alcotest.fail "sort changed cardinality");
  let path = Filename.temp_file "ksan" ".csv" in
  Finding.export_csv ~path [ e; w ];
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check int) "header + two rows" 3 (List.length lines);
  Alcotest.(check bool) "header labels columns" true
    (Test_util.contains ~sub:"severity" (List.hd lines));
  Alcotest.(check bool) "witness joined into one cell" true
    (List.exists (Test_util.contains ~sub:"line1 | line2") lines)

let suite =
  [
    Alcotest.test_case "invariants: scheduled in past" `Quick
      test_invariants_scheduled_in_past;
    Alcotest.test_case "invariants: double wake" `Quick
      test_invariants_double_wake;
    Alcotest.test_case "invariants: wake without suspend" `Quick
      test_invariants_wake_without_suspend;
    Alcotest.test_case "invariants: barrier generation" `Quick
      test_invariants_barrier_generation;
    Alcotest.test_case "invariants: stuck suspension" `Quick
      test_invariants_stuck_suspension;
    Alcotest.test_case "invariants: clean on real run" `Quick
      test_invariants_clean_on_real_run;
    Alcotest.test_case "determinism: passes" `Quick test_determinism_passes;
    Alcotest.test_case "determinism: catches divergence" `Quick
      test_determinism_catches_divergence;
    Alcotest.test_case "determinism: witness shows the first run's event" `Quick
      test_determinism_witness_is_run_one_event;
    Alcotest.test_case "determinism: per-engine events under Pool" `Quick
      test_determinism_per_engine_under_pool;
    Alcotest.test_case "checks parsing" `Quick test_checks_of_string;
    Alcotest.test_case "stock scenarios clean" `Slow test_stock_scenarios_clean;
    Alcotest.test_case "drift gate fires at seed 7" `Quick
      test_drift_gate_fires;
    Alcotest.test_case "tampered tenancy fails" `Quick test_tampered_tenancy;
    Alcotest.test_case "tampered drift fails" `Quick test_tampered_drift;
    Alcotest.test_case "tampered recovery fails" `Quick test_tampered_recovery;
    Alcotest.test_case "tampered specialize fails" `Quick
      test_tampered_specialize;
    Alcotest.test_case "inversion flagged" `Quick
      test_inversion_scenario_flagged;
    Alcotest.test_case "finding sort and csv" `Quick test_finding_sort_and_csv;
    Alcotest.test_case "double_run: calls run twice" `Quick
      test_double_run_calls_twice;
    Alcotest.test_case "double_run: static checks once" `Quick
      test_double_run_static_once;
    Alcotest.test_case "double_run: divergence" `Quick
      test_double_run_divergence;
    Alcotest.test_case "invariants: non-finite schedule" `Quick
      test_invariants_non_finite_schedule;
    Alcotest.test_case "invariants: token edge values" `Quick
      test_invariants_token_edges;
    Alcotest.test_case "invariants: stuck tokens sorted" `Quick
      test_invariants_stuck_sorted;
  ]
