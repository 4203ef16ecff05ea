open Ksurf
module Lockdep = Ksurf_analysis.Lockdep
module Finding = Ksurf_analysis.Finding

let sync ?(pid = 1) ?(time = 0.0) name op =
  Engine.Sync { now = time; pid; name; op }

let acquire ?pid ?time name =
  sync ?pid ?time name (Engine.Acquire { contended = false })

let release ?pid ?time name = sync ?pid ?time name Engine.Release

let codes findings = List.map (fun (f : Finding.t) -> f.Finding.code) findings

let test_class_of_name () =
  let check input expected =
    Alcotest.(check string) input expected (Lock.class_of_name input)
  in
  (* Kernel-instance prefix and stripe suffix both stripped. *)
  check "k0.inode[3]" "inode";
  check "k12.dcache" "dcache";
  check "k3.runqueue[15]" "runqueue";
  (* Stripe suffix alone. *)
  check "mailbox[7]" "mailbox";
  (* Names that merely resemble the pattern stay untouched. *)
  check "varbench" "varbench";
  check "inv.alpha" "inv.alpha";
  check "kfoo.x" "kfoo.x";
  check "k.x" "k.x"

let test_inversion_reports_one_cycle () =
  (* The Inversion gate: AB in one process, BA in another, at
     disjoint times so the run completes.  Exactly one cycle naming
     both lock classes. *)
  let state = Lockdep.create () in
  Gates.Inversion.run ~seed:42 ~on_engine:(fun engine ->
      Engine.add_probe engine (Lockdep.on_event state));
  let findings = Lockdep.finish state in
  let cycles =
    List.filter (fun f -> f.Finding.code = "lock-order-cycle") findings
  in
  Alcotest.(check int) "exactly one cycle" 1 (List.length cycles);
  let cycle = List.hd cycles in
  Alcotest.(check bool) "names alpha" true
    (Test_util.contains ~sub:"inv.alpha" cycle.Finding.message);
  Alcotest.(check bool) "names beta" true
    (Test_util.contains ~sub:"inv.beta" cycle.Finding.message);
  Alcotest.(check bool) "witness shows both edges" true
    (List.length cycle.Finding.witness = 2);
  (* Nothing else: the scenario releases everything and never
     double-acquires. *)
  Alcotest.(check (list string)) "only the cycle" [ "lock-order-cycle" ]
    (codes findings)

let test_consistent_order_is_clean () =
  let engine = Engine.create () in
  let state = Lockdep.create () in
  Engine.add_probe engine (Lockdep.on_event state);
  let a = Lock.create ~engine ~name:"ord.a" in
  let b = Lock.create ~engine ~name:"ord.b" in
  for i = 0 to 1 do
    Engine.spawn ~at:(float_of_int (i * 10)) engine (fun () ->
        Lock.acquire a;
        Lock.acquire b;
        Engine.delay 1.0;
        Lock.release b;
        Lock.release a)
  done;
  Engine.run engine;
  Alcotest.(check bool) "events observed" true (Lockdep.sync_events state > 0);
  Alcotest.(check bool) "one class edge" true (Lockdep.edge_count state = 1);
  Alcotest.(check (list string)) "no findings" [] (codes (Lockdep.finish state))

let test_double_acquire () =
  let state = Lockdep.create () in
  Lockdep.on_event state (acquire "dup");
  Lockdep.on_event state (acquire ~time:5.0 "dup");
  let findings = Lockdep.finish ~drained:false state in
  Alcotest.(check bool) "double-acquire reported" true
    (List.mem "double-acquire" (codes findings));
  let f =
    List.find (fun f -> f.Finding.code = "double-acquire") findings
  in
  Alcotest.(check bool) "names the lock" true
    (Test_util.contains ~sub:"dup" f.Finding.message)

let test_release_not_held () =
  let state = Lockdep.create () in
  (* pid 2 releases what pid 1 holds: lockdep tracks per-pid stacks. *)
  Lockdep.on_event state (acquire ~pid:1 "xfer");
  Lockdep.on_event state (release ~pid:2 ~time:3.0 "xfer");
  let findings = Lockdep.finish ~drained:false state in
  Alcotest.(check bool) "release-not-held reported" true
    (List.mem "release-not-held" (codes findings))

let test_held_at_drain () =
  let state = Lockdep.create () in
  Lockdep.on_event state (acquire "leak");
  Alcotest.(check (list string)) "leak reported when drained"
    [ "held-at-drain" ]
    (codes (Lockdep.finish ~drained:true state));
  Alcotest.(check (list string)) "suppressed when stopped early" []
    (codes (Lockdep.finish ~drained:false state))

let test_same_class_nesting_is_self_cycle () =
  (* Two stripes of one class nested: a self-edge on the class, which
     is a real deadlock risk between two processes nesting in opposite
     stripe order. *)
  let state = Lockdep.create () in
  Lockdep.on_event state (acquire "k0.inode[1]");
  Lockdep.on_event state (acquire ~time:1.0 "k0.inode[2]");
  Lockdep.on_event state (release ~time:2.0 "k0.inode[2]");
  Lockdep.on_event state (release ~time:3.0 "k0.inode[1]");
  let findings = Lockdep.finish state in
  Alcotest.(check (list string)) "self-cycle on the class"
    [ "lock-order-cycle" ] (codes findings);
  let f = List.hd findings in
  Alcotest.(check bool) "names the class" true
    (Test_util.contains ~sub:"inode" f.Finding.message)

let test_read_write_modes_tracked () =
  let state = Lockdep.create () in
  Lockdep.on_event state
    (sync "rw.map" (Engine.Write_acquire { contended = false }));
  Lockdep.on_event state (sync ~time:1.0 "plain" (Engine.Acquire { contended = false }));
  Lockdep.on_event state (sync ~time:2.0 "plain" Engine.Release);
  Lockdep.on_event state (sync ~time:3.0 "rw.map" Engine.Write_release);
  (* Opposite order elsewhere through the read side. *)
  Lockdep.on_event state
    (sync ~pid:2 ~time:10.0 "plain" (Engine.Acquire { contended = false }));
  Lockdep.on_event state
    (sync ~pid:2 ~time:11.0 "rw.map" (Engine.Read_acquire { contended = false }));
  Lockdep.on_event state (sync ~pid:2 ~time:12.0 "rw.map" Engine.Read_release);
  Lockdep.on_event state (sync ~pid:2 ~time:13.0 "plain" Engine.Release);
  let findings = Lockdep.finish state in
  Alcotest.(check (list string)) "rwlock participates in cycles"
    [ "lock-order-cycle" ] (codes findings)

(* Releasing an outer lock before the inner one is legal and leaves the
   rest of the stack in order: the witness of a later bad release lists
   what is still held, innermost first. *)
let test_non_innermost_release () =
  let state = Lockdep.create () in
  Lockdep.on_event state (acquire "nest.a");
  Lockdep.on_event state (acquire ~time:1.0 "nest.b");
  Lockdep.on_event state (release ~time:2.0 "nest.a");
  Lockdep.on_event state (release ~time:3.0 "nest.b");
  Alcotest.(check (list string)) "out-of-order release is clean" []
    (codes (Lockdep.finish state));
  List.iteri
    (fun i name -> Lockdep.on_event state (acquire ~time:(10.0 +. float_of_int i) name))
    [ "nest.a"; "nest.b"; "nest.c" ];
  Lockdep.on_event state (release ~time:20.0 "nest.b");
  Lockdep.on_event state (release ~time:21.0 "nest.z");
  let f = List.find (fun f -> f.Finding.code = "release-not-held") (Lockdep.finish state) in
  Alcotest.(check (list string)) "remaining stack, innermost first"
    [ "t=21 pid=1 held [nest.c; nest.a]" ] f.Finding.witness

(* Stacks of pids no engine issues are kept apart like any other. *)
let test_far_pids () =
  let state = Lockdep.create () in
  Lockdep.on_event state (acquire ~pid:100_000 "far.a");
  Lockdep.on_event state (acquire ~pid:(-3) "far.b");
  Lockdep.on_event state (acquire ~pid:100_000 ~time:1.0 "far.a");
  Lockdep.on_event state (release ~pid:100_000 ~time:2.0 "far.b");
  Lockdep.on_event state (acquire ~pid:(-3) ~time:3.0 "far.c");
  Lockdep.on_event state (release ~pid:(-3) ~time:4.0 "far.c");
  let findings = Lockdep.finish state in
  Alcotest.(check (list string)) "per-pid findings"
    [
      "pid 100000 acquires far.a while already holding it";
      "pid 100000 releases far.b which it does not hold";
      "pid -3 still holds far.b (class far.b) when the engine drained";
      "pid 100000 still holds far.a (class far.a) when the engine drained";
      "pid 100000 still holds far.a (class far.a) when the engine drained";
      "potential deadlock: lock-order cycle [far.a -> far.a]";
    ]
    (List.map (fun f -> f.Finding.message) findings)

(* A release matches the innermost entry of its name whatever the mode,
   and a second acquisition of a name is a double acquire in any mode;
   other pids' holds never count. *)
let test_one_name_both_modes () =
  let state = Lockdep.create () in
  let op ?pid ?time o = Lockdep.on_event state (sync ?pid ?time "rw.x" o) in
  op ~pid:1 (Engine.Read_acquire { contended = false });
  op ~pid:2 ~time:1.0 (Engine.Write_acquire { contended = true });
  op ~pid:1 ~time:2.0 (Engine.Write_acquire { contended = false });
  op ~pid:1 ~time:3.0 Engine.Read_release;
  op ~pid:3 ~time:4.0 (Engine.Read_acquire { contended = false });
  op ~pid:1 ~time:5.0 Engine.Write_release;
  op ~pid:2 ~time:6.0 Engine.Write_release;
  Alcotest.(check (list string)) "findings"
    [
      "pid 1 acquires rw.x (write) while already holding it";
      "pid 3 still holds rw.x (read) (class rw.x) when the engine drained";
      "potential deadlock: lock-order cycle [rw.x -> rw.x]";
    ]
    (List.map (fun f -> f.Finding.message) (Lockdep.finish state))

let suite =
  [
    Alcotest.test_case "class of instance" `Quick test_class_of_name;
    Alcotest.test_case "inversion: exactly one cycle" `Quick
      test_inversion_reports_one_cycle;
    Alcotest.test_case "consistent order clean" `Quick
      test_consistent_order_is_clean;
    Alcotest.test_case "double acquire" `Quick test_double_acquire;
    Alcotest.test_case "release not held" `Quick test_release_not_held;
    Alcotest.test_case "held at drain" `Quick test_held_at_drain;
    Alcotest.test_case "same-class nesting" `Quick
      test_same_class_nesting_is_self_cycle;
    Alcotest.test_case "read/write modes" `Quick test_read_write_modes_tracked;
    Alcotest.test_case "non-innermost release" `Quick test_non_innermost_release;
    Alcotest.test_case "far and negative pids" `Quick test_far_pids;
    Alcotest.test_case "one name in both modes" `Quick test_one_name_both_modes;
  ]
