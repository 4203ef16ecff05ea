open Ksurf

let test_delay_advances_time () =
  let engine = Engine.create () in
  let finish = ref nan in
  Engine.spawn engine (fun () ->
      Engine.delay 100.0;
      Engine.delay 50.0;
      finish := Engine.now engine);
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "time" 150.0 !finish

let test_spawn_at () =
  let engine = Engine.create () in
  let seen = ref [] in
  Engine.spawn ~at:20.0 engine (fun () -> seen := "late" :: !seen);
  Engine.spawn ~at:10.0 engine (fun () -> seen := "early" :: !seen);
  Engine.run engine;
  Alcotest.(check (list string)) "order" [ "late"; "early" ] !seen

let test_spawn_in_past_raises () =
  let engine = Engine.create () in
  Engine.spawn engine (fun () -> Engine.delay 100.0);
  Engine.run engine;
  Alcotest.(check bool) "past spawn raises" true
    (try
       Engine.spawn ~at:5.0 engine (fun () -> ());
       false
     with Invalid_argument _ -> true)

let test_same_time_fifo () =
  let engine = Engine.create () in
  let seen = ref [] in
  for i = 1 to 5 do
    Engine.spawn engine (fun () -> seen := i :: !seen)
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "creation order" [ 5; 4; 3; 2; 1 ] !seen

let test_determinism () =
  let run () =
    let engine = Engine.create ~seed:5 () in
    let log = Buffer.create 64 in
    for i = 1 to 4 do
      Engine.spawn engine (fun () ->
          let rng = Prng.split (Engine.rng engine) (string_of_int i) in
          Engine.delay (Prng.float rng 100.0);
          Buffer.add_string log (Printf.sprintf "%d@%.3f;" i (Engine.now engine)))
    done;
    Engine.run engine;
    Buffer.contents log
  in
  Alcotest.(check string) "identical runs" (run ()) (run ())

let test_suspend_wake () =
  let engine = Engine.create () in
  let wake_fn = ref (fun () -> ()) in
  let resumed_at = ref nan in
  Engine.spawn engine (fun () ->
      Engine.suspend (fun wake -> wake_fn := wake);
      resumed_at := Engine.now engine);
  Engine.spawn engine (fun () ->
      Engine.delay 77.0;
      !wake_fn ());
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "resumed when woken" 77.0 !resumed_at

let test_double_wake_fails () =
  let engine = Engine.create () in
  let wake_fn = ref (fun () -> ()) in
  Engine.spawn engine (fun () -> Engine.suspend (fun wake -> wake_fn := wake));
  Engine.spawn engine (fun () ->
      Engine.delay 1.0;
      !wake_fn ();
      !wake_fn ());
  Alcotest.(check bool) "second wake raises" true
    (try
       Engine.run engine;
       false
     with Engine.Process_error (_, Failure _) -> true)

let test_run_until () =
  let engine = Engine.create () in
  let count = ref 0 in
  Engine.spawn engine (fun () ->
      for _ = 1 to 10 do
        Engine.delay 10.0;
        incr count
      done);
  Engine.run ~until:35.0 engine;
  Alcotest.(check int) "only events before the horizon" 3 !count;
  Engine.run engine;
  Alcotest.(check int) "resumable" 10 !count

let test_until_advances_clock_when_idle () =
  let engine = Engine.create () in
  Engine.run ~until:500.0 engine;
  Alcotest.(check (float 1e-9)) "clock at horizon" 500.0 (Engine.now engine)

let test_stop_predicate () =
  let engine = Engine.create () in
  let count = ref 0 in
  Engine.spawn engine (fun () ->
      (* Infinite loop in virtual time. *)
      let rec loop () =
        Engine.delay 1.0;
        incr count;
        loop ()
      in
      loop ());
  Engine.run ~stop:(fun () -> !count >= 42) engine;
  Alcotest.(check int) "stopped by predicate" 42 !count

let test_negative_delay_raises () =
  let engine = Engine.create () in
  Engine.spawn engine (fun () -> Engine.delay (-1.0));
  Alcotest.(check bool) "negative delay" true
    (try
       Engine.run engine;
       false
     with Engine.Process_error (_, Invalid_argument _) -> true)

let test_zero_delay_is_noop () =
  let engine = Engine.create () in
  let steps = ref 0 in
  Engine.spawn engine (fun () ->
      Engine.delay 0.0;
      incr steps;
      Engine.delay 0.0;
      incr steps);
  Engine.run engine;
  Alcotest.(check int) "both steps ran" 2 !steps;
  (* A zero delay consumes no event. *)
  Alcotest.(check int) "single event" 1 (Engine.events_executed engine)

let test_exception_wrapped () =
  let engine = Engine.create () in
  Engine.spawn engine (fun () -> failwith "boom");
  Alcotest.(check bool) "wrapped" true
    (try
       Engine.run engine;
       false
     with Engine.Process_error (_, Failure msg) -> msg = "boom")

let test_delay_outside_process_fails () =
  Alcotest.(check bool) "delay outside" true
    (try
       Engine.delay 1.0;
       false
     with Failure _ -> true)

let test_pending () =
  let engine = Engine.create () in
  Engine.spawn engine (fun () -> ());
  Engine.spawn engine (fun () -> ());
  Alcotest.(check int) "two pending" 2 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check int) "drained" 0 (Engine.pending engine)

(* An unstarted spawn and a process parked on a delay are both pending,
   though the engine queues them separately. *)
let test_pending_counts_both_queues () =
  let engine = Engine.create () in
  Engine.spawn engine (fun () -> Engine.delay 10.0);
  Engine.spawn ~at:100.0 engine (fun () -> ());
  Engine.run ~until:5.0 engine;
  Alcotest.(check int) "parked delay and unstarted spawn" 2 (Engine.pending engine);
  Engine.run ~until:50.0 engine;
  Alcotest.(check int) "unstarted spawn" 1 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check int) "drained" 0 (Engine.pending engine)

(* [run ~until] moves an idle clock to the horizon only when neither a
   spawn nor a continuation is left beyond it. *)
let test_until_clock_waits_for_both_queues () =
  let clock_after setup =
    let engine = Engine.create () in
    setup engine;
    Engine.run ~until:50.0 engine;
    Engine.now engine
  in
  Alcotest.(check (float 0.0)) "unstarted spawn beyond the horizon" 0.0
    (clock_after (fun e -> Engine.spawn ~at:100.0 e (fun () -> ())));
  Alcotest.(check (float 0.0)) "delay beyond the horizon" 0.0
    (clock_after (fun e -> Engine.spawn e (fun () -> Engine.delay 100.0)));
  Alcotest.(check (float 0.0)) "both queues empty" 50.0
    (clock_after (fun e -> Engine.spawn e (fun () -> Engine.delay 20.0)))

(* Events at an unchanged time share [Engine.now]'s box.  The box is
   kept only for the same bits, so a spawn at -0.0 on a clock at 0.0
   reads back -0.0. *)
let test_now_box_per_time () =
  let engine = Engine.create () in
  let reads = ref [] in
  let read () = reads := Engine.now engine :: !reads in
  Engine.spawn ~at:(-0.0) engine read;
  Engine.spawn ~at:5.0 engine read;
  Engine.spawn ~at:5.0 engine read;
  Engine.run engine;
  match List.rev !reads with
  | [ zero; a; b ] ->
      Alcotest.(check bool) "-0.0 reads back as -0.0" true (Float.sign_bit zero);
      Alcotest.(check bool) "same time, same box" true (a == b)
  | _ -> Alcotest.fail "expected three reads"

let test_probe_event_sequence () =
  let engine = Engine.create () in
  Alcotest.(check bool) "unobserved by default" false (Engine.observed engine);
  let events = ref [] in
  (* The engine overwrites one block per kind, so a kept event is a copy. *)
  Engine.add_probe engine (fun e -> events := Engine.copy_event e :: !events);
  Alcotest.(check bool) "observed once registered" true
    (Engine.observed engine);
  Alcotest.(check int) "no process outside run" 0 (Engine.current_pid engine);
  let wake_fn = ref (fun () -> ()) in
  let inner_pid = ref 0 in
  Engine.spawn engine (fun () ->
      inner_pid := Engine.current_pid engine;
      Engine.suspend (fun wake -> wake_fn := wake));
  Engine.spawn engine (fun () ->
      Engine.delay 5.0;
      !wake_fn ());
  Engine.run engine;
  Alcotest.(check int) "process sees its own pid" 1 !inner_pid;
  Alcotest.(check int) "pid restored after drain" 0
    (Engine.current_pid engine);
  let expected =
    [
      Engine.Scheduled { now = 0.0; at = 0.0; pid = 1 };
      Engine.Scheduled { now = 0.0; at = 0.0; pid = 2 };
      Engine.Executed { now = 0.0; pid = 1 };
      Engine.Suspended { now = 0.0; pid = 1; token = 1 };
      Engine.Executed { now = 0.0; pid = 2 };
      Engine.Scheduled { now = 0.0; at = 5.0; pid = 2 };
      Engine.Executed { now = 5.0; pid = 2 };
      (* The wake is attributed to the suspended process (pid 1), not
         the waker (pid 2): ownership transfers back on resume. *)
      Engine.Woken { now = 5.0; pid = 1; token = 1 };
      Engine.Scheduled { now = 5.0; at = 5.0; pid = 1 };
      Engine.Executed { now = 5.0; pid = 1 };
    ]
  in
  Alcotest.(check int) "event count" (List.length expected)
    (List.length (List.rev !events));
  Alcotest.(check bool) "exact probe sequence" true
    (List.rev !events = expected)

let test_suspend_double_wake_probe () =
  (* The second wake still reaches probes before the engine raises, so
     sanitizers can report it with full context. *)
  let engine = Engine.create () in
  let wakes = ref [] in
  Engine.add_probe engine (fun e ->
      match e with
      | Engine.Woken { token; _ } -> wakes := token :: !wakes
      | _ -> ());
  let wake_fn = ref (fun () -> ()) in
  Engine.spawn engine (fun () -> Engine.suspend (fun wake -> wake_fn := wake));
  Engine.spawn engine (fun () ->
      Engine.delay 1.0;
      !wake_fn ();
      !wake_fn ());
  Alcotest.(check bool) "second wake raises" true
    (try
       Engine.run engine;
       false
     with Engine.Process_error (_, Failure _) -> true);
  Alcotest.(check (list int)) "both wakes observed, same token" [ 1; 1 ]
    !wakes

let test_non_finite_delay_raises () =
  (* NaN passes both the negative-delay and the before-now guards, so
     it needs its own check; an infinite delay is refused alike. *)
  List.iter
    (fun d ->
      let engine = Engine.create () in
      Engine.spawn engine (fun () -> Engine.delay d);
      Alcotest.(check bool) (Printf.sprintf "delay %g" d) true
        (try
           Engine.run engine;
           false
         with Engine.Process_error (_, Invalid_argument _) -> true);
      Alcotest.(check int) (Printf.sprintf "delay %g left no event" d) 0
        (Engine.pending engine))
    [ nan; infinity ]

let test_non_finite_schedule_raises () =
  List.iter
    (fun at ->
      let engine = Engine.create () in
      Alcotest.(check bool) (Printf.sprintf "spawn at %g" at) true
        (try
           Engine.spawn ~at engine ignore;
           false
         with Invalid_argument _ -> true);
      Alcotest.(check int) (Printf.sprintf "spawn at %g queued nothing" at) 0
        (Engine.pending engine))
    [ nan; infinity ]

let test_parking_slot_reuse () =
  (* Process 1 parks and is woken, freeing its slot; process 2 parks in
     the recycled slot.  The stale wake of process 1 must be refused as
     a second wake, not resume process 2. *)
  let engine = Engine.create () in
  let first = ref (fun () -> ()) and second = ref (fun () -> ()) in
  let resumed = ref [] in
  Engine.spawn engine (fun () ->
      Engine.suspend (fun wake -> first := wake);
      resumed := 1 :: !resumed);
  Engine.spawn engine (fun () ->
      Engine.delay 1.0;
      !first ();
      Engine.delay 1.0;
      Engine.suspend (fun wake -> second := wake);
      resumed := 2 :: !resumed);
  Engine.run engine;
  Alcotest.(check (list (triple int int (float 0.0)))) "second parked in recycled slot"
    [ (2, 2, 2.0) ] (Engine.blocked engine);
  Alcotest.(check bool) "stale wake refused" true
    (try
       !first ();
       false
     with Failure _ -> true);
  Alcotest.(check (list int)) "only process 1 resumed" [ 1 ] !resumed;
  !second ();
  Engine.run engine;
  Alcotest.(check (list int)) "process 2 resumed by its own wake" [ 2; 1 ] !resumed;
  Alcotest.(check (list (triple int int (float 0.0)))) "nothing parked" []
    (Engine.blocked engine)

(* The same refusal for a ticket parked and woken directly: process 1
   is woken, process 2 parks in the freed slot, and the old ticket must
   fail as a second wake without resuming process 2. *)
let test_stale_ticket () =
  let engine = Engine.create () in
  let first = ref (-1) and second = ref (-1) in
  let resumed = ref [] in
  Engine.spawn engine (fun () ->
      first := Engine.ticket engine;
      Engine.park engine;
      resumed := 1 :: !resumed);
  Engine.spawn engine (fun () ->
      Engine.delay 1.0;
      Engine.wake_ticket engine !first;
      Engine.delay 1.0;
      second := Engine.ticket engine;
      Engine.park engine;
      resumed := 2 :: !resumed);
  Engine.run engine;
  Alcotest.(check bool) "a fresh ticket" true (!first <> !second);
  Alcotest.(check (list (triple int int (float 0.0)))) "second parked in the freed slot"
    [ (2, 2, 2.0) ] (Engine.blocked engine);
  (match Engine.wake_ticket engine !first with
  | () -> Alcotest.fail "stale ticket accepted"
  | exception Failure msg ->
      Alcotest.(check string) "refused" "Engine: process woken twice" msg);
  Engine.run engine;
  Alcotest.(check (list int)) "only process 1 resumed" [ 1 ] !resumed;
  Engine.wake_ticket engine !second;
  Engine.run engine;
  Alcotest.(check (list int)) "process 2 resumed by its own ticket" [ 2; 1 ] !resumed

let test_blocked_lists_every_parked () =
  let engine = Engine.create () in
  for i = 1 to 40 do
    Engine.spawn ~at:(float_of_int i) engine (fun () -> Engine.suspend ignore)
  done;
  Engine.run engine;
  let parked = Engine.blocked engine in
  Alcotest.(check int) "all parked" 40 (List.length parked);
  Alcotest.(check (triple int int (float 0.0))) "sorted by pid" (1, 1, 1.0)
    (List.hd parked);
  Alcotest.(check (triple int int (float 0.0))) "last" (40, 40, 40.0)
    (List.nth parked 39)

let qcheck_delays_sum =
  QCheck.Test.make ~name:"sequential delays accumulate" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (float_bound_exclusive 1000.0))
    (fun delays ->
      let engine = Engine.create () in
      let finish = ref nan in
      Engine.spawn engine (fun () ->
          List.iter Engine.delay delays;
          finish := Engine.now engine);
      Engine.run engine;
      Float.abs (!finish -. List.fold_left ( +. ) 0.0 delays) < 1e-6)

(* A random script on a coarse integer time grid, so ties are common:
   root processes spawned at chosen times, each running delays, nested
   spawns, suspensions and wakes, holds of one shared lock and arrivals
   at one two-party barrier.  [Wake] resumes the longest-parked
   process, if any. *)
type step =
  | Delay of int
  | Spawn of int * step list
  | Suspend
  | Wake
  | Hold of int  (** hold the script's one [Lock] for that long *)
  | Arrive  (** arrive at the script's one two-party [Barrier] *)

let rec prog_gen depth =
  QCheck.Gen.(list_size (int_bound 5) (step_gen depth))

and step_gen depth =
  let open QCheck.Gen in
  let leaves =
    [
      map (fun d -> Delay d) (int_range 1 3);
      return Suspend;
      return Wake;
      map (fun d -> Hold d) (int_range 1 3);
      return Arrive;
    ]
  in
  if depth = 0 then oneof leaves
  else oneof (map2 (fun at p -> Spawn (at, p)) (int_bound 3) (prog_gen (depth - 1)) :: leaves)

let rec show_prog p = "[" ^ String.concat ";" (List.map show_step p) ^ "]"

and show_step = function
  | Delay d -> Printf.sprintf "D%d" d
  | Spawn (at, p) -> Printf.sprintf "S%d%s" at (show_prog p)
  | Suspend -> "Z"
  | Wake -> "W"
  | Hold d -> Printf.sprintf "H%d" d
  | Arrive -> "B"

let script_arb =
  QCheck.make
    ~print:(fun roots ->
      String.concat " " (List.map (fun (at, p) -> Printf.sprintf "@%d%s" at (show_prog p)) roots))
    QCheck.Gen.(list_size (int_range 1 5) (pair (int_bound 3) (prog_gen 2)))

(* The (time, pid) of every event the engine executes. *)
let engine_trace roots =
  let engine = Engine.create () in
  let wakes = Queue.create () and trace = ref [] in
  let lock = Lock.create ~engine ~name:"script.lock" in
  let barrier = Barrier.create ~engine ~name:"script.barrier" ~parties:2 in
  Engine.add_probe engine (function
    | Engine.Executed { now; pid } -> trace := (int_of_float now, pid) :: !trace
    | _ -> ());
  let rec run_prog prog =
    List.iter
      (function
        | Delay d -> Engine.delay (float_of_int d)
        | Spawn (at, p) ->
            Engine.spawn ~at:(Engine.now engine +. float_of_int at) engine (fun () -> run_prog p)
        | Suspend -> Engine.suspend (fun wake -> Queue.push wake wakes)
        | Wake -> Option.iter (fun wake -> wake ()) (Queue.take_opt wakes)
        | Hold d ->
            Lock.acquire lock;
            Engine.delay (float_of_int d);
            Lock.release lock
        | Arrive -> Barrier.arrive barrier)
      prog
  in
  List.iter (fun (at, p) -> Engine.spawn ~at:(float_of_int at) engine (fun () -> run_prog p)) roots;
  Engine.run engine;
  List.rev !trace

(* The same script on a list scheduler: one queue of (time, seq, process)
   entries, every spawn, delay and wake taking the next seq, and the
   earliest (time, seq) firing next.  The lock and the barrier are FIFO
   lists of the processes parked on them: a release hands the lock to
   the first, the last arrival wakes them all in arrival order.
   [Release] is the second half of a [Hold]. *)
type proc = { pid : int; mutable rest : ref_step list }
and ref_step = Step of step | Release

let reference_trace roots =
  let queue = ref [] and seq = ref 0 and next_pid = ref 0 in
  let parked = Queue.create () and trace = ref [] in
  let held = ref false and lock_q = Queue.create () in
  let arrived = Queue.create () in
  let schedule time p =
    incr seq;
    queue := (time, !seq, p) :: !queue
  in
  let spawn time prog =
    incr next_pid;
    schedule time { pid = !next_pid; rest = List.map (fun s -> Step s) prog }
  in
  let rec resume now p =
    match p.rest with
    | [] -> ()
    | step :: rest -> (
        p.rest <- rest;
        match step with
        | Step (Delay d) -> schedule (now + d) p
        | Step Suspend -> Queue.push p parked
        | Step (Spawn (at, prog)) ->
            spawn (now + at) prog;
            resume now p
        | Step Wake ->
            Option.iter (schedule now) (Queue.take_opt parked);
            resume now p
        | Step (Hold d) ->
            p.rest <- Step (Delay d) :: Release :: p.rest;
            if !held then Queue.push p lock_q
            else begin
              held := true;
              resume now p
            end
        | Release ->
            (match Queue.take_opt lock_q with
            | Some next -> schedule now next
            | None -> held := false);
            resume now p
        | Step Arrive ->
            if Queue.is_empty arrived then Queue.push p arrived
            else begin
              Queue.iter (schedule now) arrived;
              Queue.clear arrived;
              resume now p
            end)
  in
  List.iter (fun (at, prog) -> spawn at prog) roots;
  let rec loop () =
    match !queue with
    | [] -> ()
    | first :: others ->
        let earlier ((t, s, _) as a) ((t', s', _) as b) = if (t', s') < (t, s) then b else a in
        let time, s, p = List.fold_left earlier first others in
        queue := List.filter (fun (_, s', _) -> s' <> s) !queue;
        trace := (time, p.pid) :: !trace;
        resume time p;
        loop ()
  in
  loop ();
  List.rev !trace

let qcheck_order_matches_reference =
  QCheck.Test.make ~name:"execution order is (time, creation seq)" ~count:300 script_arb
    (fun roots -> engine_trace roots = reference_trace roots)

(* --- delays the run loop would pop next ------------------------------- *)

(* A wake that overflows the clock to infinity is refused as a spawn at
   infinity is: by the engine, outside the process, leaving nothing
   queued. *)
let test_overflowing_wake_raises () =
  let engine = Engine.create () in
  Engine.spawn ~at:Float.max_float engine (fun () -> Engine.delay Float.max_float);
  Alcotest.(check bool) "Invalid_argument out of run" true
    (try
       Engine.run engine;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "nothing queued" 0 (Engine.pending engine)

(* A wake at the time of a queued event runs after it: the queued event
   took its sequence number first. *)
let test_wake_at_queued_time_runs_after () =
  let engine = Engine.create () in
  let seen = ref [] in
  Engine.spawn engine (fun () ->
      Engine.delay 10.0;
      seen := "delayed" :: !seen);
  Engine.spawn ~at:10.0 engine (fun () -> seen := "queued" :: !seen);
  Engine.run engine;
  Alcotest.(check (list string)) "queued first" [ "queued"; "delayed" ] (List.rev !seen);
  Alcotest.(check int) "three events" 3 (Engine.events_executed engine)

(* A wake at [until] runs; the next, beyond it, stays queued and the
   clock stays at [until]. *)
let test_wake_beyond_until_stays_pending () =
  let engine = Engine.create () in
  let steps = ref 0 in
  Engine.spawn engine (fun () ->
      Engine.delay 5.0;
      incr steps;
      Engine.delay 5.0;
      incr steps);
  Engine.run ~until:5.0 engine;
  Alcotest.(check int) "the wake at until ran" 1 !steps;
  Alcotest.(check int) "the wake beyond until is pending" 1 (Engine.pending engine);
  Alcotest.(check (float 0.0)) "clock at until" 5.0 (Engine.now engine);
  Engine.run engine;
  Alcotest.(check int) "resumed" 2 !steps;
  Alcotest.(check (float 0.0)) "clock at the last wake" 10.0 (Engine.now engine)

(* Once [stop] holds, a delay leaves its process queued. *)
let test_wake_after_stop_stays_pending () =
  let engine = Engine.create () in
  let count = ref 0 and polls = ref 0 in
  Engine.spawn engine (fun () ->
      while true do
        incr count;
        Engine.delay 1.0
      done);
  Engine.run
    ~stop:(fun () ->
      incr polls;
      !count >= 3)
    engine;
  Alcotest.(check int) "stopped after three steps" 3 !count;
  Alcotest.(check int) "the process is pending" 1 (Engine.pending engine);
  Alcotest.(check (float 0.0)) "clock at the last wake" 2.0 (Engine.now engine);
  Alcotest.(check int) "stop polled once per event" 4 !polls;
  Alcotest.(check int) "three events" 3 (Engine.events_executed engine)

(* Every delay counts as one executed event, whether or not another
   event is queued. *)
let test_events_executed_counts_delays () =
  let engine = Engine.create () in
  Engine.spawn engine (fun () ->
      for _ = 1 to 100 do
        Engine.delay 1.0
      done);
  Engine.run engine;
  Alcotest.(check int) "a lone process" 101 (Engine.events_executed engine);
  Engine.spawn engine (fun () ->
      for _ = 1 to 100 do
        Engine.delay 1.0
      done);
  Engine.spawn ~at:1000.0 engine ignore;
  Engine.run engine;
  Alcotest.(check int) "beside a queued spawn" 203 (Engine.events_executed engine);
  Alcotest.(check (float 0.0)) "clock" 1000.0 (Engine.now engine)

(* One fixed mixed simulation (delays, spawns at equal times, a lock
   handoff, a mailbox, a barrier and [until]) under a probe that hashes
   every field of every event.  The pinned hash is the engine's event
   order: any reordering, a missing or an extra event changes it. *)
let probe_stream_hash () =
  let engine = Engine.create ~seed:11 () in
  let h = ref 0 and count = ref 0 in
  let mix ints = List.iter (fun i -> h := Stable_hash.combine !h i) ints in
  let bits f = Int64.to_int (Int64.bits_of_float f) in
  let op_fields = function
    | Engine.Acquire { contended } -> [ 1; Bool.to_int contended ]
    | Release -> [ 2 ]
    | Read_acquire { contended } -> [ 3; Bool.to_int contended ]
    | Read_release -> [ 4 ]
    | Write_acquire { contended } -> [ 5; Bool.to_int contended ]
    | Write_release -> [ 6 ]
    | Barrier_arrive { generation; arrived; parties } -> [ 7; generation; arrived; parties ]
    | Barrier_release { generation } -> [ 8; generation ]
  in
  Engine.add_probe engine (fun e ->
      incr count;
      mix
        (match e with
        | Engine.Scheduled { now; at; pid } -> [ 1; bits now; bits at; pid ]
        | Executed { now; pid } -> [ 2; bits now; pid ]
        | Suspended { now; pid; token } -> [ 3; bits now; pid; token ]
        | Woken { now; pid; token } -> [ 4; bits now; pid; token ]
        | Sync { now; pid; name; op } ->
            5 :: bits now :: pid :: Stable_hash.string name :: op_fields op
        | Injected _ | Denied _ -> [ 6 ]));
  let lock = Lock.create ~engine ~name:"stream.lock" in
  let box = Mailbox.create ~engine ~name:"stream.box" in
  let barrier = Barrier.create ~engine ~name:"stream.barrier" ~parties:3 in
  let rng = Prng.split (Engine.rng engine) "stream" in
  for w = 1 to 3 do
    Engine.spawn engine (fun () ->
        for round = 1 to 4 do
          Engine.delay (1.0 +. Prng.float rng 5.0);
          Lock.acquire lock;
          Engine.delay (float_of_int w);
          Lock.release lock;
          Mailbox.send box ((10 * w) + round);
          Barrier.arrive barrier
        done)
  done;
  Engine.spawn engine (fun () ->
      for _ = 1 to 12 do
        let m = Mailbox.recv box in
        Engine.delay (float_of_int (m mod 7))
      done);
  for _ = 1 to 2 do
    Engine.spawn ~at:20.0 engine (fun () ->
        Engine.delay 3.0;
        Engine.delay 0.5)
  done;
  Engine.spawn engine (fun () ->
      while true do
        Engine.delay 7.0
      done);
  Engine.run ~until:60.0 engine;
  mix [ bits (Engine.now engine); Engine.pending engine; Engine.events_executed engine ];
  (!count, !h)

let test_probe_stream_pinned () =
  let count, hash = probe_stream_hash () in
  Alcotest.(check (pair int int))
    "events and hash" (223, 1855394493944187539) (count, hash)

let suite =
  [
    Alcotest.test_case "delay advances time" `Quick test_delay_advances_time;
    Alcotest.test_case "spawn at" `Quick test_spawn_at;
    Alcotest.test_case "spawn in past" `Quick test_spawn_in_past_raises;
    Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
    Alcotest.test_case "now box kept at an unchanged time" `Quick test_now_box_per_time;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "suspend/wake" `Quick test_suspend_wake;
    Alcotest.test_case "double wake" `Quick test_double_wake_fails;
    Alcotest.test_case "run until" `Quick test_run_until;
    Alcotest.test_case "until advances idle clock" `Quick
      test_until_advances_clock_when_idle;
    Alcotest.test_case "stop predicate" `Quick test_stop_predicate;
    Alcotest.test_case "negative delay" `Quick test_negative_delay_raises;
    Alcotest.test_case "zero delay" `Quick test_zero_delay_is_noop;
    Alcotest.test_case "exception wrapped" `Quick test_exception_wrapped;
    Alcotest.test_case "delay outside process" `Quick
      test_delay_outside_process_fails;
    Alcotest.test_case "pending" `Quick test_pending;
    Alcotest.test_case "pending counts both queues" `Quick
      test_pending_counts_both_queues;
    Alcotest.test_case "until clock waits for both queues" `Quick
      test_until_clock_waits_for_both_queues;
    Alcotest.test_case "probe event sequence" `Quick test_probe_event_sequence;
    Alcotest.test_case "double wake reaches probes" `Quick
      test_suspend_double_wake_probe;
    Alcotest.test_case "non-finite delay" `Quick test_non_finite_delay_raises;
    Alcotest.test_case "non-finite schedule" `Quick test_non_finite_schedule_raises;
    Alcotest.test_case "parking slot reuse" `Quick test_parking_slot_reuse;
    Alcotest.test_case "blocked lists every parked" `Quick
      test_blocked_lists_every_parked;
    QCheck_alcotest.to_alcotest qcheck_delays_sum;
    QCheck_alcotest.to_alcotest qcheck_order_matches_reference;
    Alcotest.test_case "stale ticket refused" `Quick test_stale_ticket;
    Alcotest.test_case "overflowing wake" `Quick test_overflowing_wake_raises;
    Alcotest.test_case "wake at a queued time runs after it" `Quick
      test_wake_at_queued_time_runs_after;
    Alcotest.test_case "wake beyond until stays pending" `Quick
      test_wake_beyond_until_stays_pending;
    Alcotest.test_case "wake after stop stays pending" `Quick
      test_wake_after_stop_stays_pending;
    Alcotest.test_case "events executed counts delays" `Quick
      test_events_executed_counts_delays;
    Alcotest.test_case "probe stream pinned" `Quick test_probe_stream_pinned;
  ]
