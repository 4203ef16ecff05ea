open Ksurf

let test_uncontended () =
  let engine = Engine.create () in
  let lock = Lock.create ~engine ~name:"l" in
  let t = ref nan in
  Engine.spawn engine (fun () ->
      Lock.with_hold lock 10.0;
      t := Engine.now engine);
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "just the hold" 10.0 !t;
  Alcotest.(check int) "one acquisition" 1 (Lock.acquisitions lock);
  Alcotest.(check int) "no contention" 0 (Lock.contended_acquisitions lock)

let test_mutual_exclusion () =
  let engine = Engine.create () in
  let lock = Lock.create ~engine ~name:"l" in
  let holders = ref 0 in
  let violated = ref false in
  for _ = 1 to 8 do
    Engine.spawn engine (fun () ->
        for _ = 1 to 10 do
          Lock.acquire lock;
          incr holders;
          if !holders > 1 then violated := true;
          Engine.delay 3.0;
          decr holders;
          Lock.release lock
        done)
  done;
  Engine.run engine;
  Alcotest.(check bool) "never two holders" false !violated

let test_fifo_fairness () =
  let engine = Engine.create () in
  let lock = Lock.create ~engine ~name:"l" in
  let order = ref [] in
  (* Process 0 grabs the lock; 1..4 queue in arrival order. *)
  Engine.spawn engine (fun () ->
      Lock.acquire lock;
      Engine.delay 100.0;
      Lock.release lock);
  for i = 1 to 4 do
    Engine.spawn ~at:(float_of_int i) engine (fun () ->
        Lock.acquire lock;
        order := i :: !order;
        Engine.delay 1.0;
        Lock.release lock)
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "granted in arrival order" [ 1; 2; 3; 4 ]
    (List.rev !order)

let test_queueing_delay () =
  let engine = Engine.create () in
  let lock = Lock.create ~engine ~name:"l" in
  let finish = Array.make 3 nan in
  for i = 0 to 2 do
    Engine.spawn engine (fun () ->
        Lock.with_hold lock 10.0;
        finish.(i) <- Engine.now engine)
  done;
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "first" 10.0 finish.(0);
  Alcotest.(check (float 1e-9)) "second" 20.0 finish.(1);
  Alcotest.(check (float 1e-9)) "third" 30.0 finish.(2)

let test_release_unheld_fails () =
  let engine = Engine.create () in
  let lock = Lock.create ~engine ~name:"naked" in
  Engine.spawn engine (fun () -> Lock.release lock);
  Alcotest.(check bool) "raises, naming the lock" true
    (try
       Engine.run engine;
       false
     with Engine.Process_error (_, Invalid_argument msg) ->
       (* The message must identify the offending lock. *)
       Test_util.contains ~sub:"naked" msg)

let test_wait_statistics () =
  let engine = Engine.create () in
  let lock = Lock.create ~engine ~name:"l" in
  for _ = 1 to 2 do
    Engine.spawn engine (fun () -> Lock.with_hold lock 50.0)
  done;
  Engine.run engine;
  Alcotest.(check int) "contended once" 1 (Lock.contended_acquisitions lock);
  Alcotest.(check (float 1e-9)) "max wait is the hold" 50.0
    (Welford.max_value (Lock.wait_stats lock));
  Alcotest.(check (float 1e-9)) "hold mean" 50.0
    (Welford.mean (Lock.hold_stats lock))

let qcheck_serialization =
  QCheck.Test.make ~name:"n holders serialise to n*hold" ~count:100
    QCheck.(pair (int_range 1 10) (int_range 1 20))
    (fun (procs, hold) ->
      let hold = float_of_int hold in
      let engine = Engine.create () in
      let lock = Lock.create ~engine ~name:"q" in
      let last = ref nan in
      for _ = 1 to procs do
        Engine.spawn engine (fun () ->
            Lock.with_hold lock hold;
            last := Engine.now engine)
      done;
      Engine.run engine;
      Float.abs (!last -. (float_of_int procs *. hold)) < 1e-6)

let suite =
  [
    Alcotest.test_case "uncontended" `Quick test_uncontended;
    Alcotest.test_case "mutual exclusion" `Quick test_mutual_exclusion;
    Alcotest.test_case "fifo fairness" `Quick test_fifo_fairness;
    Alcotest.test_case "queueing delay" `Quick test_queueing_delay;
    Alcotest.test_case "release unheld" `Quick test_release_unheld_fails;
    Alcotest.test_case "wait statistics" `Quick test_wait_statistics;
    QCheck_alcotest.to_alcotest qcheck_serialization;
  ]
