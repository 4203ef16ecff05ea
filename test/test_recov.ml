open Ksurf

(* krecov: failure detection, supervision, checkpoint/restart, and the
   engine liveness watchdog. *)

(* --- helpers ----------------------------------------------------------- *)

(* A synthetic iteration pool: the supervisor only needs an empirical
   distribution, not a full cluster simulation. *)
let pool =
  let rng = Prng.create 7 in
  Array.init 96 (fun _ -> 8e5 +. Prng.float rng 4e5)

let temp_path suffix =
  let p = Filename.temp_file "ksurf-recov" suffix in
  Sys.remove p;
  p

let cleanup p = if Sys.file_exists p then Sys.remove p

let crashy_plan = Option.get (Fault_plan.preset "crashy")

let permanent_crash_plan =
  {
    Fault_plan.name = "perma";
    actions =
      [ Fault_plan.Rank_crash { rank = 1; at_ns = 3e6; restart_after_ns = None } ];
  }

let base_config =
  { Supervisor.default_config with Supervisor.nodes = 16; iterations = 8; seed = 11 }

(* --- detector ---------------------------------------------------------- *)

(* The supervisor's heartbeat interval, which is also the mean the
   detector assumes before its first sample. *)
let hb = 1.0e5

(* A detector for one rank with [n] regular heartbeats behind it. *)
let warmed_detector n =
  let d = Detector.create ~now:0.0 ~ranks:[ 0 ] () in
  for i = 1 to n do
    Detector.heartbeat d ~rank:0 ~now:(float_of_int i *. hb)
  done;
  (d, float_of_int n *. hb)

(* The verdict a warmed detector reaches after [silence]: two
   evaluations climb Alive -> Suspect -> Dead as far as phi allows, so
   the verdict is the band phi falls in. *)
let severity_after beats silence =
  let d, last = warmed_detector beats in
  ignore (Detector.evaluate d ~now:(last +. silence));
  ignore (Detector.evaluate d ~now:(last +. silence));
  match Detector.state d ~rank:0 with
  | Detector.Alive -> 0
  | Detector.Suspect -> 1
  | Detector.Dead -> 2

let qcheck_phi_monotone_in_silence =
  QCheck.Test.make ~name:"phi is monotone in silence" ~count:100
    QCheck.(triple (int_range 1 20) (pair pos_float pos_float) small_int)
    (fun (beats, (s1, s2), _) ->
      severity_after beats (Float.min s1 s2) <= severity_after beats (Float.max s1 s2))

let qcheck_no_dead_under_jitter =
  (* Heartbeats with bounded jitter around the nominal interval must
     never drive a rank to Dead (nor even Suspect with the default
     thresholds): phi <= 1.3/(0.7 ln 10) < 1 for +-30% jitter. *)
  QCheck.Test.make ~name:"no Dead under sub-threshold jitter" ~count:60
    QCheck.(pair small_int (list_of_size Gen.(int_range 5 40) (float_range (-0.3) 0.3)))
    (fun (_, jitters) ->
      let d = Detector.create ~now:0.0 ~ranks:[ 0 ] () in
      let now = ref 0.0 in
      let ok = ref true in
      List.iter
        (fun j ->
          now := !now +. (hb *. (1.0 +. j));
          ignore (Detector.evaluate d ~now:!now);
          Detector.heartbeat d ~rank:0 ~now:!now;
          if Detector.state d ~rank:0 = Detector.Dead then ok := false)
        jitters;
      !ok)

(* First evaluation time (in steps of hb/10 after the last heartbeat)
   at which the rank is ruled Dead. *)
let detection_latency () =
  let d, last = warmed_detector 8 in
  let step = hb /. 10.0 in
  let rec go i =
    if i > 1000 then Alcotest.fail "never detected"
    else
      let now = last +. (float_of_int i *. step) in
      ignore (Detector.evaluate d ~now);
      if Detector.state d ~rank:0 = Detector.Dead then i else go (i + 1)
  in
  go 1

let test_detection_latency_deterministic () =
  let l1 = detection_latency () and l2 = detection_latency () in
  Alcotest.(check int) "same latency" l1 l2;
  Alcotest.(check bool) "not instant" true (l1 > 10)

let test_verdict_ladder () =
  let d, last = warmed_detector 8 in
  (* Climb: the rank passes through Suspect before Dead, and the
     transitions are reported exactly once each. *)
  let seen = ref [] in
  let step = hb /. 4.0 in
  for i = 1 to 400 do
    let now = last +. (float_of_int i *. step) in
    seen := !seen @ Detector.evaluate d ~now
  done;
  (match !seen with
  | [ (0, Detector.Alive, Detector.Suspect); (0, Detector.Suspect, Detector.Dead) ]
    ->
      ()
  | l -> Alcotest.failf "unexpected transition list (%d entries)" (List.length l));
  (* Dead is sticky: a late heartbeat does not resurrect. *)
  Detector.heartbeat d ~rank:0 ~now:(last +. 200.0 *. hb);
  ignore (Detector.evaluate d ~now:(last +. 200.0 *. hb));
  Alcotest.(check bool) "dead is sticky" true
    (Detector.state d ~rank:0 = Detector.Dead)

let test_suspect_recovers () =
  let d, last = warmed_detector 8 in
  (* Silence long enough for Suspect but not Dead, then a heartbeat. *)
  let suspect_at = last +. (3.0 *. hb) in
  ignore (Detector.evaluate d ~now:suspect_at);
  Alcotest.(check bool) "suspect" true
    (Detector.state d ~rank:0 = Detector.Suspect);
  Detector.heartbeat d ~rank:0 ~now:suspect_at;
  let trans = Detector.evaluate d ~now:suspect_at in
  Alcotest.(check bool) "recovers to alive" true
    (List.mem (0, Detector.Suspect, Detector.Alive) trans
    && Detector.state d ~rank:0 = Detector.Alive)

let test_retired_rank_accrues_nothing () =
  let d, last = warmed_detector 5 in
  Detector.retire d ~rank:0;
  let trans = Detector.evaluate d ~now:(last +. 1000.0 *. hb) in
  Alcotest.(check int) "no transitions" 0 (List.length trans)

(* --- checkpoint -------------------------------------------------------- *)

let sample_state =
  {
    Checkpoint.superstep = 7;
    runtime_ns = 123456.789e3;
    membership = [ 0; 2; 3; 5 ];
    rejoins =
      [
        { Checkpoint.rj_rank = 1; rj_superstep = 9; rj_incident = 0; rj_died_at = 6 };
        { Checkpoint.rj_rank = 4; rj_superstep = 8; rj_incident = 1; rj_died_at = 7 };
      ];
    incidents = 2;
    prng_state = 0x9e3779b97f4a7c15L;
    prng_seed = 42;
    crashes = 2;
    restarts = 1;
    backups = 3;
    deaths = 2;
    transitions = 11;
    checkpoints = 4;
    degraded = true;
  }

let test_checkpoint_roundtrip () =
  let p = temp_path ".ckpt" in
  Checkpoint.write ~path:p sample_state;
  (match Checkpoint.read ~path:p with
  | Ok s -> Alcotest.(check bool) "round-trips" true (s = sample_state)
  | Error e -> Alcotest.failf "read failed: %s" e);
  Alcotest.(check bool) "no temp left behind" false
    (Sys.file_exists (p ^ ".tmp"));
  cleanup p

let test_checkpoint_detects_corruption () =
  let p = temp_path ".ckpt" in
  Checkpoint.write ~path:p sample_state;
  let contents =
    let ic = open_in_bin p in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let expect_error label s =
    let oc = open_out_bin p in
    output_string oc s;
    close_out oc;
    match Checkpoint.read ~path:p with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" label
  in
  (* Flip one byte of the payload. *)
  let flipped = Bytes.of_string contents in
  let i = String.length contents - 5 in
  Bytes.set flipped i (if Bytes.get flipped i = '0' then '1' else '0');
  expect_error "bit flip" (Bytes.to_string flipped);
  (* Truncate mid-payload (a torn write the atomic rename prevents). *)
  expect_error "truncation" (String.sub contents 0 (String.length contents / 2));
  expect_error "wrong magic" ("bogus v9\n" ^ contents);
  expect_error "empty file" "";
  cleanup p;
  match Checkpoint.read ~path:p with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file accepted"

(* --- journal ----------------------------------------------------------- *)

let test_journal_roundtrip () =
  let p = temp_path ".journal" in
  let j = Recov_journal.load ~path:p () in
  Alcotest.(check int) "starts empty" 0 (List.length (Recov_journal.cells j));
  Recov_journal.record j "dose:native:0.50";
  Recov_journal.record j "a key with spaces";
  Recov_journal.record j "dose:native:0.50";
  Recov_journal.flush j;
  let j' = Recov_journal.load ~path:p () in
  Alcotest.(check (list string))
    "reload keeps order, dedupes"
    [ "dose:native:0.50"; "a key with spaces" ]
    (Recov_journal.cells j');
  Alcotest.(check bool) "mem hit" true (Recov_journal.mem j' "a key with spaces");
  Alcotest.(check bool) "mem miss" false (Recov_journal.mem j' "other");
  cleanup p

let test_journal_drops_corrupt_lines () =
  let p = temp_path ".journal" in
  let j = Recov_journal.load ~path:p () in
  Recov_journal.record j "good-cell";
  Recov_journal.record j "another-good-cell";
  Recov_journal.flush j;
  (* Simulate a torn append plus line-level bit rot. *)
  let oc = open_out_gen [ Open_append ] 0o644 p in
  output_string oc "cell deadbeef tampered-checksum\ngarbage line\ncell 12";
  close_out oc;
  let j' = Recov_journal.load ~path:p () in
  Alcotest.(check (list string))
    "good cells survive, bad dropped"
    [ "good-cell"; "another-good-cell" ]
    (Recov_journal.cells j');
  cleanup p

let test_journal_missing_or_foreign_file () =
  let j = Recov_journal.load ~path:(temp_path ".journal") () in
  Alcotest.(check int) "missing file is empty" 0
    (List.length (Recov_journal.cells j));
  let p = temp_path ".journal" in
  let oc = open_out p in
  output_string oc "not a journal at all\n";
  close_out oc;
  let j' = Recov_journal.load ~path:p () in
  Alcotest.(check int) "foreign file is empty" 0
    (List.length (Recov_journal.cells j'));
  cleanup p

(* --- file I/O hardening ------------------------------------------------ *)

let test_write_atomic_no_partial_file () =
  let p = temp_path ".txt" in
  Fileio.write_atomic ~path:p (fun oc -> output_string oc "hello\n");
  Alcotest.(check bool) "written" true (Sys.file_exists p);
  Alcotest.(check bool) "no temp" false (Sys.file_exists (p ^ ".tmp"));
  cleanup p

let test_write_failure_raises_io_error () =
  let bad = Filename.concat (temp_path "-nodir") "out.csv" in
  (try
     Fileio.write_atomic ~path:bad (fun oc -> output_string oc "x");
     Alcotest.fail "no exception"
   with Fileio.Io_error _ -> ());
  try
    Csv.write ~path:bad ~header:[ "a" ] ~rows:[ [ "1" ] ];
    Alcotest.fail "csv write: no exception"
  with Fileio.Io_error _ -> ()

(* --- supervisor -------------------------------------------------------- *)

let test_all_policies_complete_crashy () =
  (* Acceptance: the 64-node BSP run under the crashy preset completes
     under every recovery policy without wedging. *)
  let config =
    { Supervisor.default_config with Supervisor.nodes = 64; iterations = 8; seed = 5; crash_rate = 0.01 }
  in
  List.iter
    (fun policy ->
      let o =
        Supervisor.run ~pool ~plan:crashy_plan
          ~config:{ config with Supervisor.policy } ()
      in
      Alcotest.(check int)
        (Supervisor.policy_name policy ^ " completes")
        8 o.Supervisor.supersteps;
      Alcotest.(check bool)
        (Supervisor.policy_name policy ^ " positive runtime")
        true
        (o.Supervisor.runtime_ns > 0.0);
      Alcotest.(check bool)
        (Supervisor.policy_name policy ^ " saw the planned crash")
        true
        (o.Supervisor.crashes >= 1);
      Alcotest.(check bool)
        (Supervisor.policy_name policy ^ " straggler amplification")
        true
        (o.Supervisor.straggler_factor >= 1.0))
    Supervisor.[ Survivors; Readmit; Speculative ]

let test_survivors_degrades () =
  let o =
    Supervisor.run ~pool ~plan:permanent_crash_plan
      ~config:{ base_config with Supervisor.policy = Supervisor.Survivors } ()
  in
  Alcotest.(check bool) "degraded" true o.Supervisor.degraded;
  Alcotest.(check bool) "lost a rank" true
    (o.Supervisor.survivors < base_config.Supervisor.nodes);
  Alcotest.(check bool) "death recorded" true (o.Supervisor.deaths >= 1);
  Alcotest.(check bool) "transitions probed" true (o.Supervisor.transitions >= 2)

let test_readmit_restores_membership () =
  let o =
    Supervisor.run ~pool ~plan:crashy_plan
      ~config:{ base_config with Supervisor.policy = Supervisor.Readmit } ()
  in
  Alcotest.(check bool) "restarted" true (o.Supervisor.restarts >= 1);
  Alcotest.(check int) "membership restored" base_config.Supervisor.nodes
    o.Supervisor.survivors;
  Alcotest.(check bool) "not degraded" false o.Supervisor.degraded

let test_speculative_launches_backups () =
  let o =
    Supervisor.run ~pool ~plan:permanent_crash_plan
      ~config:{ base_config with Supervisor.policy = Supervisor.Speculative } ()
  in
  Alcotest.(check bool) "backup launched" true (o.Supervisor.backups >= 1);
  Alcotest.(check int) "membership intact" base_config.Supervisor.nodes
    o.Supervisor.survivors

let test_outcome_deterministic () =
  let run () =
    Supervisor.run ~pool ~plan:crashy_plan
      ~config:
        { base_config with Supervisor.policy = Supervisor.Readmit; crash_rate = 0.02 }
      ()
  in
  Alcotest.(check bool) "bit-identical outcomes" true (run () = run ())

let test_crash_rate_costs_runtime () =
  let runtime rate =
    (Supervisor.run ~pool
       ~config:
         {
           base_config with
           Supervisor.policy = Supervisor.Speculative;
           crash_rate = rate;
         }
       ())
      .Supervisor.runtime_ns
  in
  Alcotest.(check bool) "crashes cost runtime" true
    (runtime 0.05 > runtime 0.0)

(* Kill-and-resume bit-identity, the central checkpoint property: for
   every kill point, a run killed there and resumed from its last
   checkpoint must produce the same outcome as the uninterrupted run. *)
let test_kill_resume_bit_identity () =
  let ckpt = temp_path ".ckpt" in
  let config =
    {
      base_config with
      Supervisor.policy = Supervisor.Readmit;
      crash_rate = 0.02;
      checkpoint_interval = 2;
      checkpoint_path = Some ckpt;
    }
  in
  let reference = Supervisor.run ~pool ~plan:crashy_plan ~config () in
  cleanup ckpt;
  List.iter
    (fun kill_after ->
      ignore (Supervisor.run ~pool ~plan:crashy_plan ~config ~kill_after ());
      let resumed =
        Supervisor.run ~pool ~plan:crashy_plan ~config ~resume_from:ckpt ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "kill at %d resumes bit-identically" kill_after)
        true
        ({ resumed with Supervisor.resumed_from = 0 }
        = { reference with Supervisor.resumed_from = 0 });
      cleanup ckpt)
    [ 1; 2; 3; 5; 7 ]

let test_resume_from_corrupt_checkpoint_fails_loudly () =
  let ckpt = temp_path ".ckpt" in
  let oc = open_out ckpt in
  output_string oc "ksurf-checkpoint v1\nchecksum 0\nsuperstep banana\n";
  close_out oc;
  (try
     ignore
       (Supervisor.run ~pool
          ~config:{ base_config with Supervisor.checkpoint_path = Some ckpt }
          ~resume_from:ckpt ());
     Alcotest.fail "corrupt checkpoint accepted"
   with Failure _ -> ());
  cleanup ckpt

(* --- liveness watchdog ------------------------------------------------- *)

let test_engine_deadline_converts_hang () =
  let engine = Engine.create ~seed:1 () in
  Engine.spawn engine (fun () ->
      let rec spin () =
        Engine.delay 10.0;
        spin ()
      in
      spin ());
  try
    Engine.run ~deadline:200.0 engine;
    Alcotest.fail "no Hung"
  with Engine.Hung msg ->
    Alcotest.(check bool) "diagnostic" true
      (Test_util.contains ~sub:"Engine hung" msg)

let test_engine_stall_limit () =
  (* A zero-delay ping-pong: every wake reschedules at the same virtual
     time, so time never advances — the livelock the no-progress
     detector exists for. *)
  let engine = Engine.create ~seed:1 () in
  let a = Mailbox.create ~engine ~name:"ping" in
  let b = Mailbox.create ~engine ~name:"pong" in
  Engine.spawn engine (fun () ->
      let rec loop () =
        Mailbox.send b 0;
        ignore (Mailbox.recv a);
        loop ()
      in
      loop ());
  Engine.spawn engine (fun () ->
      let rec loop () =
        ignore (Mailbox.recv b);
        Mailbox.send a 0;
        loop ()
      in
      loop ());
  try
    Engine.run ~stall_limit:64 engine;
    Alcotest.fail "no Hung"
  with Engine.Hung msg ->
    Alcotest.(check bool) "diagnostic" true
      (Test_util.contains ~sub:"Engine hung" msg)

(* A delay the clock absorbs (1e20 +. 1.0 = 1e20) never advances
   virtual time, so the no-progress detector trips in [run], as for any
   other stall, and names the time. *)
let test_absorbed_delay_stalls () =
  let engine = Engine.create ~seed:1 () in
  Engine.spawn ~at:1e20 engine (fun () ->
      while true do
        Engine.delay 1.0
      done);
  match Engine.run ~stall_limit:64 engine with
  | () -> Alcotest.fail "no Hung"
  | exception Engine.Hung msg ->
      Alcotest.(check string) "diagnostic"
        "Engine hung at t=1e+20 (no progress: 65 consecutive events at t=1e+20): 0 \
         runnable event(s) pending, no parked processes"
        msg;
      Alcotest.(check int) "events" 66 (Engine.events_executed engine)

(* A lone process whose next wake lies beyond the deadline: [run] moves
   the clock to the deadline and raises with the wake still queued. *)
let test_wake_beyond_deadline_hangs () =
  let engine = Engine.create ~seed:1 () in
  Engine.spawn engine (fun () ->
      while true do
        Engine.delay 30.0
      done);
  match Engine.run ~deadline:100.0 engine with
  | () -> Alcotest.fail "no Hung"
  | exception Engine.Hung msg ->
      Alcotest.(check string) "diagnostic"
        "Engine hung at t=100 (virtual-time deadline 100 exceeded by next event at 120): \
         1 runnable event(s) pending, no parked processes"
        msg;
      Alcotest.(check (float 0.0)) "clock at the deadline" 100.0 (Engine.now engine);
      Alcotest.(check int) "the wake is pending" 1 (Engine.pending engine);
      Alcotest.(check int) "events" 4 (Engine.events_executed engine)

let test_hung_diagnostic_lists_parked () =
  let engine = Engine.create ~seed:1 () in
  let lock = Lock.create ~engine ~name:"wedge" in
  (* Holder terminates without releasing; the waiter parks forever; a
     ticker keeps virtual time marching into the deadline. *)
  Engine.spawn engine (fun () -> Lock.acquire lock);
  Engine.spawn ~at:1.0 engine (fun () -> Lock.acquire lock);
  Engine.spawn ~at:2.0 engine (fun () ->
      let rec tick () =
        Engine.delay 10.0;
        tick ()
      in
      tick ());
  try
    Engine.run ~deadline:150.0 engine;
    Alcotest.fail "no Hung"
  with Engine.Hung msg ->
    Alcotest.(check bool) "lists parked process" true
      (Test_util.contains ~sub:"parked" msg)

let test_disabled_policy_wedge_aborts () =
  (* The hand-constructed hung case of the acceptance criteria: a
     permanent rank crash with recovery disabled wedges the barrier;
     the watchdog must convert the infinite wait into [Engine.Hung]. *)
  try
    ignore
      (Supervisor.run ~pool ~plan:permanent_crash_plan
         ~config:{ base_config with Supervisor.policy = Supervisor.Disabled }
         ());
    Alcotest.fail "wedged run completed"
  with Engine.Hung msg ->
    Alcotest.(check bool) "diagnostic names the wedge" true
      (Test_util.contains ~sub:"Engine hung" msg)

(* --- cluster integration ----------------------------------------------- *)

let tiny_cluster_config =
  {
    Cluster.default_config with
    Cluster.nodes_simulated = 1;
    sim_iterations_per_node = 6;
    warmup_iterations = 1;
    requests_per_iteration = 8;
    iterations = 8;
    units = 2;
    unit_cores = 4;
    unit_mem_mb = 2048;
  }

let tiny_corpus =
  lazy
    (Generator.run
       ~params:{ Generator.default_params with Generator.target_programs = 6 }
       ())
      .Generator.corpus

let cluster_cell ?on_env () =
  let app = Option.get (Apps.by_name "silo") in
  Cluster.run ~app ~kind:Env.Native ~contended:false ~config:tiny_cluster_config
    ~noise_corpus:(Lazy.force tiny_corpus) ?on_env ()

(* Satellite regression: a permanent [Rank_crash] during node simulation
   must not contribute partial-iteration samples to the pool — they are
   dropped, counted, and stamp the result degraded. *)
let test_cluster_permanent_crash_drops_samples () =
  let baseline = cluster_cell () in
  let armed = ref None in
  let on_env env =
    armed := Some (Kfault.arm ~env ~plan:permanent_crash_plan ~seed:3 ())
  in
  let r = cluster_cell ~on_env () in
  Option.iter Kfault.disarm !armed;
  Alcotest.(check bool) "crash happened" true (r.Cluster.crashes >= 1);
  Alcotest.(check bool) "samples dropped" true (r.Cluster.samples_dropped > 0);
  Alcotest.(check bool) "stamped degraded" true r.Cluster.degraded;
  Alcotest.(check bool) "pool visibly smaller" true
    (r.Cluster.iteration_samples < baseline.Cluster.iteration_samples);
  Alcotest.(check int) "baseline drops nothing" 0
    baseline.Cluster.samples_dropped

(* A Cluster node serves through Runner's workers, so a worker that
   crashes and comes back emits one [rank-restart] probe per restart,
   as a Fig 3 node does. *)
let test_cluster_restart_probes () =
  let plan =
    {
      Fault_plan.name = "restart";
      actions =
        [ Fault_plan.Rank_crash { rank = 1; at_ns = 1e5; restart_after_ns = Some 1e5 } ];
    }
  in
  let probed = ref 0 in
  let on_engine engine =
    Engine.add_probe engine (function
      | Engine.Injected { fault = "rank-restart"; _ } -> incr probed
      | _ -> ())
  in
  let armed = ref None in
  let on_env env = armed := Some (Kfault.arm ~env ~plan ~seed:3 ()) in
  let app = Option.get (Apps.by_name "silo") in
  let r =
    Cluster.run ~app ~kind:Env.Native ~contended:false ~config:tiny_cluster_config
      ~on_engine ~on_env ()
  in
  Option.iter Kfault.disarm !armed;
  Alcotest.(check int) "one restart" 1 r.Cluster.restarts;
  Alcotest.(check int) "one probe per restart" r.Cluster.restarts !probed;
  Alcotest.(check bool) "a restart is no loss" false r.Cluster.degraded

(* --- experiments ------------------------------------------------------- *)

let test_recover_study_and_journal () =
  let p = temp_path ".journal" in
  let journal = Recov_journal.load ~path:p () in
  let t =
    Experiments.Recover.run ~rates:[ 0.0; 0.02 ]
      (Experiments.context ~seed:9 ~corpus:tiny_corpus ~journal
         Experiments.Quick)
  in
  Alcotest.(check int) "3 policies x 2 rates" 6
    (List.length t.Experiments.Recover.cells);
  List.iter
    (fun (c : Experiments.Recover.cell) ->
      Alcotest.(check bool) "cell completed" true
        (c.Experiments.Recover.supersteps = t.Experiments.Recover.iterations))
    t.Experiments.Recover.cells;
  (* Crashes must cost runtime for every policy. *)
  List.iter
    (fun policy ->
      match Experiments.Recover.overhead t ~policy with
      | [ (_, base); (_, stressed) ] ->
          Alcotest.(check (float 1e-9)) (policy ^ " baseline") 1.0 base;
          Alcotest.(check bool) (policy ^ " overhead >= 1") true
            (stressed >= 1.0)
      | l -> Alcotest.failf "%s: %d overhead points" policy (List.length l))
    [ "survivors"; "readmit"; "speculative" ];
  (* Second run with the same journal skips every cell. *)
  let t' =
    Experiments.Recover.run ~rates:[ 0.0; 0.02 ]
      (Experiments.context ~seed:9 ~corpus:tiny_corpus
         ~journal:(Recov_journal.load ~path:p ()) Experiments.Quick)
  in
  Alcotest.(check int) "resume skips all" 0
    (List.length t'.Experiments.Recover.cells);
  cleanup p

let test_recovered_bsp_scenario_clean () =
  let r = Gates.run (module Gates.Recovered_bsp) ~seed:42 in
  Alcotest.(check int) "no findings" 0 (List.length r.Gates.findings);
  Alcotest.(check (list string)) "no failures" [] r.Gates.failures

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_phi_monotone_in_silence;
    QCheck_alcotest.to_alcotest qcheck_no_dead_under_jitter;
    Alcotest.test_case "detection latency deterministic" `Quick
      test_detection_latency_deterministic;
    Alcotest.test_case "verdict ladder" `Quick test_verdict_ladder;
    Alcotest.test_case "suspect recovers" `Quick test_suspect_recovers;
    Alcotest.test_case "retired rank silent" `Quick
      test_retired_rank_accrues_nothing;
    Alcotest.test_case "checkpoint roundtrip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint corruption" `Quick
      test_checkpoint_detects_corruption;
    Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal corrupt lines" `Quick
      test_journal_drops_corrupt_lines;
    Alcotest.test_case "journal foreign file" `Quick
      test_journal_missing_or_foreign_file;
    Alcotest.test_case "write_atomic clean" `Quick
      test_write_atomic_no_partial_file;
    Alcotest.test_case "io failures raise" `Quick
      test_write_failure_raises_io_error;
    Alcotest.test_case "all policies complete crashy" `Quick
      test_all_policies_complete_crashy;
    Alcotest.test_case "survivors degrades" `Quick test_survivors_degrades;
    Alcotest.test_case "readmit restores membership" `Quick
      test_readmit_restores_membership;
    Alcotest.test_case "speculative backups" `Quick
      test_speculative_launches_backups;
    Alcotest.test_case "outcome deterministic" `Quick test_outcome_deterministic;
    Alcotest.test_case "crash rate costs runtime" `Quick
      test_crash_rate_costs_runtime;
    Alcotest.test_case "kill/resume bit-identity" `Quick
      test_kill_resume_bit_identity;
    Alcotest.test_case "corrupt checkpoint fails loudly" `Quick
      test_resume_from_corrupt_checkpoint_fails_loudly;
    Alcotest.test_case "deadline converts hang" `Quick
      test_engine_deadline_converts_hang;
    Alcotest.test_case "stall limit" `Quick test_engine_stall_limit;
    Alcotest.test_case "absorbed delay stalls" `Quick test_absorbed_delay_stalls;
    Alcotest.test_case "wake beyond deadline hangs" `Quick
      test_wake_beyond_deadline_hangs;
    Alcotest.test_case "hung diagnostic lists parked" `Quick
      test_hung_diagnostic_lists_parked;
    Alcotest.test_case "disabled policy wedge aborts" `Quick
      test_disabled_policy_wedge_aborts;
    Alcotest.test_case "cluster crash drops samples" `Quick
      test_cluster_permanent_crash_drops_samples;
    Alcotest.test_case "cluster restart probes" `Quick test_cluster_restart_probes;
    Alcotest.test_case "recover study + journal" `Slow
      test_recover_study_and_journal;
    Alcotest.test_case "recovered-bsp scenario clean" `Slow
      test_recovered_bsp_scenario_clean;
  ]
