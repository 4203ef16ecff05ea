open Ksurf

(* Durable state (the completed-cell journal, atomic writes), the
   engine liveness watchdog, and cluster nodes under rank crashes. *)

(* --- helpers ----------------------------------------------------------- *)

let temp_path suffix =
  let p = Filename.temp_file "ksurf-recov" suffix in
  Sys.remove p;
  p

let cleanup p = if Sys.file_exists p then Sys.remove p

let permanent_crash_plan =
  {
    Fault_plan.name = "perma";
    actions =
      [ Fault_plan.Rank_crash { rank = 1; at_ns = 3e6; restart_after_ns = None } ];
  }

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

let suite =
  [
    Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal corrupt lines" `Quick
      test_journal_drops_corrupt_lines;
    Alcotest.test_case "journal foreign file" `Quick
      test_journal_missing_or_foreign_file;
    Alcotest.test_case "write_atomic clean" `Quick
      test_write_atomic_no_partial_file;
    Alcotest.test_case "io failures raise" `Quick
      test_write_failure_raises_io_error;
    Alcotest.test_case "deadline converts hang" `Quick
      test_engine_deadline_converts_hang;
    Alcotest.test_case "stall limit" `Quick test_engine_stall_limit;
    Alcotest.test_case "absorbed delay stalls" `Quick test_absorbed_delay_stalls;
    Alcotest.test_case "wake beyond deadline hangs" `Quick
      test_wake_beyond_deadline_hangs;
    Alcotest.test_case "hung diagnostic lists parked" `Quick
      test_hung_diagnostic_lists_parked;
    Alcotest.test_case "cluster crash drops samples" `Quick
      test_cluster_permanent_crash_drops_samples;
    Alcotest.test_case "cluster restart probes" `Quick test_cluster_restart_probes;
  ]
