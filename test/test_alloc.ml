(* Allocation ceilings on the simulator's hot path, measured with
   [Gc.minor_words] in the build profile the tests run under (dune's
   default dev profile, which compiles with -opaque: no cross-module
   inlining, so every float that crosses a module boundary is boxed).
   Each ceiling is a minor-word count per operation; a change that adds
   a box to one of these paths fails here before it shows up in the
   ledger. *)

open Ksurf

(* Minor words per call of [f] over [n] calls, after one warm-up call
   (which may fill a memo or grow a table). *)
let words_per_op ~n f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* "0 words": the loop's own measurement overhead, a word or two over
   100k calls, stays far below this. *)
let zero = 0.01

(* An exact count, with the same allowance for the loop's overhead.
   Every ceiling below that uses it is the measured value: one more
   box (2 words) or closure (4 or more) fails it. *)
let exactly words = words +. zero

let check_ceiling name ~ceiling words =
  if words > ceiling then
    Alcotest.failf "%s: %.2f minor words per op, ceiling %.2f" name words ceiling

(* Minor words per [Engine.delay] that goes through the event queue.
   Two processes delay 10 ns at a time, 5 ns apart, so each wake finds
   the other's event queued before it and none runs in place.  The
   count covers [n] delays of the first process, which span [n] of the
   second; the warm-up delay grows the event queue. *)
let queued_delay_words engine =
  let n = 20_000 in
  let words = ref infinity in
  Engine.spawn engine (fun () -> words := words_per_op ~n (fun () -> Engine.delay 10.0));
  Engine.spawn ~at:5.0 engine (fun () ->
      for _ = 1 to n + 1 do
        Engine.delay 10.0
      done);
  Engine.run engine;
  Alcotest.(check int) "every delay executed" (2 * (n + 2))
    (Engine.events_executed engine);
  !words /. 2.0

(* The continuation the runtime builds on [perform] (2 words) and
   nothing else.  The expiry goes to the heap through the delay cell,
   the queue holds the continuation itself and the run loop moves the
   clock in its cell, so a job wrapper, a boxed expiry or a boxed clock
   fails this. *)
let test_delay () =
  check_ceiling "Engine.delay (no probe)" ~ceiling:(exactly 2.0)
    (queued_delay_words (Engine.create ~seed:1 ()))

(* Under a probe a delay fills the engine's [Scheduled] and [Executed]
   blocks rather than building events, so beyond its continuation (2
   words) it pays only the boxes those fields hold: the expiry's (2)
   and the clock's (2), made once for the [Executed] event and shared
   by the next [Scheduled].  A fresh event per emit costs 7 words more;
   delivering them to the probe list builds no closure. *)
let test_observed_delay () =
  let engine = Engine.create ~seed:1 () in
  Engine.add_probe engine (fun _ -> ());
  check_ceiling "Engine.delay (one probe)" ~ceiling:(exactly 6.0)
    (queued_delay_words engine)

(* A lone process's delays are each the next event, so each runs in
   place: no continuation, no queue entry, nothing at all.  Under a
   probe it pays only its two events' boxes, the expiry's and the
   clock's (4 words). *)
let test_delay_in_place () =
  let lone_delay_words engine =
    let n = 20_000 in
    let words = ref infinity in
    Engine.spawn engine (fun () -> words := words_per_op ~n (fun () -> Engine.delay 10.0));
    Engine.run engine;
    Alcotest.(check int) "every delay executed" (n + 2) (Engine.events_executed engine);
    !words
  in
  check_ceiling "Engine.delay in place (no probe)" ~ceiling:zero
    (lone_delay_words (Engine.create ~seed:1 ()));
  let engine = Engine.create ~seed:1 () in
  Engine.add_probe engine (fun _ -> ());
  check_ceiling "Engine.delay in place (one probe)" ~ceiling:(exactly 4.0)
    (lone_delay_words engine)

(* Lockdep and the invariant checker, as every gate attaches them.
   They read each event and allocate nothing in steady state, so a
   delay costs exactly what it costs under one no-op probe. *)
let analyzed engine =
  Engine.add_probe engine (Analysis.Lockdep.on_event (Analysis.Lockdep.create ()));
  Engine.add_probe engine (Analysis.Invariants.on_event (Analysis.Invariants.create ()));
  engine

let test_analyzed_delay () =
  check_ceiling "Engine.delay (lockdep + invariants)" ~ceiling:(exactly 6.0)
    (queued_delay_words (analyzed (Engine.create ~seed:1 ())))

(* Two [Engine.now] reads within one event share one box: the first
   read after the clock moved makes it (2 words), the second returns
   it.  The lone process's delay runs in place, so that is all. *)
let test_now_boxes_once () =
  let n = 20_000 in
  let engine = Engine.create ~seed:1 () in
  let words = ref infinity and shared = ref true in
  Engine.spawn engine (fun () ->
      words :=
        words_per_op ~n (fun () ->
            Engine.delay 10.0;
            let a = Engine.now engine in
            let b = Engine.now engine in
            if a != b then shared := false));
  Engine.run engine;
  Alcotest.(check bool) "one box per clock move" true !shared;
  check_ceiling "Engine.delay + two Engine.now" ~ceiling:(exactly 2.0) !words

let test_welford_add () =
  let w = Welford.create () in
  (* Already-boxed samples, so the loop itself boxes nothing. *)
  let samples = List.init 100 (fun i -> float_of_int ((i * 37) mod 101) +. 0.5) in
  let rec feed = function
    | [] -> ()
    | x :: rest ->
        Welford.add w x;
        feed rest
  in
  check_ceiling "Welford.add" ~ceiling:zero
    (words_per_op ~n:1_000 (fun () -> feed samples) /. 100.0);
  Alcotest.(check int) "all samples counted" 100_100 (Welford.count w)

let test_prng () =
  let rng = Prng.create 3 in
  check_ceiling "Prng.int" ~ceiling:zero
    (words_per_op ~n:100_000 (fun () -> ignore (Prng.int rng 1000)));
  check_ceiling "Prng.chance" ~ceiling:zero
    (words_per_op ~n:100_000 (fun () -> ignore (Prng.chance rng 0.25)))

let test_lock_pair () =
  let n = 20_000 in
  let engine = Engine.create ~seed:1 () in
  let lock = Lock.create ~engine ~name:"alloc.lock" in
  let words = ref infinity in
  Engine.spawn engine (fun () ->
      words :=
        words_per_op ~n (fun () ->
            Lock.acquire lock;
            Lock.release lock));
  Engine.run engine;
  Alcotest.(check int) "uncontended" 0 (Lock.contended_acquisitions lock);
  check_ceiling "Lock.acquire/release (uncontended)" ~ceiling:zero !words

(* Minor words per lock hold when [procs] processes hold one lock in
   turn, so every acquire but the very first parks and every release
   hands the lock on: the acquirer's continuation (2 words).  The
   hold's delay runs in place, since the other processes are parked.
   The parked acquirer's ticket waits in an int ring, so a wake closure
   or a queue cell per waiter fails this. *)
let test_contended_lock () =
  let procs = 4 and holds = 5_000 in
  let engine = Engine.create ~seed:1 () in
  let lock = Lock.create ~engine ~name:"alloc.contended" in
  for _ = 1 to procs do
    Engine.spawn engine (fun () ->
        for _ = 1 to holds do
          Lock.acquire lock;
          Engine.delay 10.0;
          Lock.release lock
        done)
  done;
  (* The warm-up: start every process, so the ring and the parking
     table reach their size before the count starts. *)
  Engine.run ~until:100.0 engine;
  let done_before = Lock.acquisitions lock in
  let w0 = Gc.minor_words () in
  Engine.run engine;
  let words = (Gc.minor_words () -. w0) /. float_of_int (Lock.acquisitions lock - done_before) in
  Alcotest.(check int) "every hold done" (procs * holds) (Lock.acquisitions lock);
  Alcotest.(check bool) "contended" true
    (Lock.contended_acquisitions lock >= (procs * holds) - procs);
  check_ceiling "Lock hold (contended handoff)" ~ceiling:(exactly 2.0) words

(* Minor words per party per [Barrier] generation: every party but the
   last parks (its continuation, 2 words) and each then delays (2).
   The parties wake at one time, so each delay finds the others queued
   before its expiry and goes through the queue. *)
let test_barrier_generation () =
  let parties = 8 and rounds = 2_500 in
  let engine = Engine.create ~seed:1 () in
  let barrier = Barrier.create ~engine ~name:"alloc.barrier" ~parties in
  for _ = 1 to parties do
    Engine.spawn engine (fun () ->
        for _ = 1 to rounds do
          Barrier.arrive barrier;
          Engine.delay 10.0
        done)
  done;
  Engine.run ~until:100.0 engine;
  let gen0 = Barrier.generation barrier in
  let w0 = Gc.minor_words () in
  Engine.run engine;
  let words =
    (Gc.minor_words () -. w0)
    /. float_of_int ((Barrier.generation barrier - gen0) * parties)
  in
  Alcotest.(check int) "every generation released" rounds (Barrier.generation barrier);
  check_ceiling "Barrier generation, per party" ~ceiling:(exactly 3.75) words

(* Under both analyzers an uncontended pair allocates nothing: its two
   [Sync] events fill the engine's one [Sync] block with the clock's
   shared box, the acquire payload is a shared constant, the lock's
   name is interned on the warm-up pair and the held stack pops in
   place.  A fresh [Sync] per emit costs 5 words each; a held stack
   rebuilt as a list costs 3 words more per acquire. *)
let test_analyzed_lock_pair () =
  let n = 20_000 in
  let engine = analyzed (Engine.create ~seed:1 ()) in
  let lock = Lock.create ~engine ~name:"k0.alloc[3]" in
  let words = ref infinity in
  Engine.spawn engine (fun () ->
      words :=
        words_per_op ~n (fun () ->
            Lock.acquire lock;
            Lock.release lock));
  Engine.run engine;
  Alcotest.(check int) "uncontended" 0 (Lock.contended_acquisitions lock);
  check_ceiling "Lock.acquire/release (lockdep + invariants)" ~ceiling:zero !words

let test_memo_hit () =
  let spec = Option.get (Syscalls.by_name "write") in
  let arg = { Arg.size = 4096; obj = 3; flags = 3 } in
  check_ceiling "spec.ops (memo hit)" ~ceiling:zero
    (words_per_op ~n:100_000 (fun () -> ignore (spec.Spec.ops arg)))

(* Boots allocate per striped lock touched, not per stripe counted: a
   4-vCPU guest measures 655.72 words and a 64-core host 462, and each
   ceiling is that plus 10 words, so a few more boxes or a closure fail
   it.  A boot that creates every stripe up front costs over 17,000. *)
let test_vm_boot () =
  let engine = Engine.create ~seed:1 () in
  let id = ref 0 in
  check_ceiling "Vm.boot (4 vCPUs)" ~ceiling:666.0
    (words_per_op ~n:200 (fun () ->
         incr id;
         ignore (Vm.boot ~engine ~id:!id { Vm.vcpus = 4; mem_mb = 512 })))

let test_instance_boot () =
  let engine = Engine.create ~seed:1 () in
  check_ceiling "Instance.boot (64 cores)" ~ceiling:472.0
    (words_per_op ~n:200 (fun () ->
         ignore
           (Instance.boot ~engine ~config:Kernel_config.default ~id:0 ~cores:64
              ~mem_mb:65536 ())))

let test_stripe_hit () =
  let engine = Engine.create ~seed:1 () in
  let inst =
    Instance.boot ~engine ~config:Kernel_config.default ~id:0 ~cores:64 ~mem_mb:65536 ()
  in
  let ctx = { Instance.core = 5; tenant = 3; key = 11; cgroup = None } in
  check_ceiling "Instance.lock (existing stripe)" ~ceiling:zero
    (words_per_op ~n:100_000 (fun () -> ignore (Instance.lock inst ctx Ops.Inode)))

let test_streaming_add () =
  let s = Streamstat.streaming () in
  (* A list, not a float array, so each sample is already boxed. *)
  let samples = List.init 257 (fun i -> float_of_int ((i * 7919) mod 1009) +. 0.25) in
  let rec feed = function
    | [] -> ()
    | x :: rest ->
        Streamstat.add s x;
        feed rest
  in
  check_ceiling "Streamstat.add (streaming)" ~ceiling:zero
    (words_per_op ~n:400 (fun () -> feed samples) /. 257.0)

let test_dist_sample () =
  let rng = Prng.create 5 in
  List.iter
    (fun (name, d) ->
      check_ceiling ("Dist.sample " ^ name) ~ceiling:(exactly 2.0)
        (words_per_op ~n:100_000 (fun () -> ignore (Dist.sample d rng))))
    [
      ("lognormal", Dist.lognormal ~median:100.0 ~sigma:0.8);
      ("exponential", Dist.exponential ~mean:50.0);
      ("uniform", Dist.uniform ~lo:10.0 ~hi:20.0);
    ]

let test_dist_sample_into () =
  let rng = Prng.create 5 and cell = [| 0.0 |] in
  List.iter
    (fun (name, d) ->
      check_ceiling ("Dist.sample_into " ^ name) ~ceiling:zero
        (words_per_op ~n:100_000 (fun () -> Dist.sample_into d rng cell)))
    [
      ("constant", Dist.constant 3.0);
      ("lognormal", Dist.lognormal ~median:100.0 ~sigma:0.8);
      ("exponential", Dist.exponential ~mean:50.0);
      ("uniform", Dist.uniform ~lo:10.0 ~hi:20.0);
      ("bounded pareto", Dist.bounded_pareto ~lo:1.0 ~hi:1e4 ~shape:1.2);
      ("shifted scaled", Dist.shifted 5.0 (Dist.scaled 2.0 (Dist.exponential ~mean:9.0)));
    ]

(* [n] runs of [program] inside one process of a background-free
   kernel, so no daemon event lands in the measurement. *)
let program_words ~n program =
  let engine = Engine.create ~seed:1 () in
  let inst =
    Instance.boot ~engine
      ~config:(Kernel_config.without_background Kernel_config.default)
      ~id:0 ~cores:4 ~mem_mb:4096 ()
  in
  let ctx = { Instance.core = 1; tenant = 0; key = 3; cgroup = None } in
  let words = ref infinity in
  Engine.spawn engine (fun () ->
      words := words_per_op ~n (fun () -> Instance.exec_program inst ctx program));
  Engine.run engine;
  !words

(* One delay, which runs in place on a kernel without daemons, and
   nothing else: the op's duration reaches the engine through its delay
   cell, and the timer tick's chance is drawn unboxed.  A boxed
   duration costs 2 words. *)
let test_exec_cpu () =
  check_ceiling "Instance.exec_program [Cpu _]" ~ceiling:zero
    (program_words ~n:20_000 [ Ops.Cpu 120.0 ])

(* Three delays (the hold and the two body ops), each run in place, and
   nothing else: the hold is drawn into the instance's cell.  Iterating
   the body through a partial application of [exec_op] would add a
   closure. *)
let test_with_lock_body () =
  let hold = Dist.constant 40.0 in
  check_ceiling "Instance.exec_program [With_lock (_, _, [Cpu; Cpu])]"
    ~ceiling:zero
    (program_words ~n:20_000
       [ Ops.With_lock (Ops.Tasklist, hold, [ Ops.Cpu 30.0; Ops.Cpu 50.0 ]) ])

(* getpid through each kind of deployment, on one background-free
   rank: nothing at all.  Native runs two events (entry path and op),
   Docker three (the cgroup charge too), and KVM its exits' delay on
   the calls that exit; with nothing else queued each is a delay that
   runs in place.  The rank passes the context it keeps for the key,
   the outcome is a constant and the clock is read from its cell: a
   context built per call costs 5 words, a latency in the outcome 4. *)
let test_try_syscall () =
  let spec = Option.get (Syscalls.by_name "getpid") in
  let arg = { Arg.size = 0; obj = 0; flags = 0 } in
  List.iter
    (fun kind ->
      let engine = Engine.create ~seed:1 () in
      let env =
        Env.deploy ~engine
          ~kernel_config:(Kernel_config.without_background Kernel_config.default)
          kind
          (Partition.equal_split ~units:1 ~total_cores:1 ~total_mem_mb:1024)
      in
      let n = 20_000 in
      let words = ref infinity and events = ref 0 in
      Engine.spawn engine (fun () ->
          let call () = ignore (Env.try_syscall env ~rank:0 spec arg : Env.syscall_outcome) in
          call ();
          let e0 = Engine.events_executed engine in
          words := words_per_op ~n call;
          events := Engine.events_executed engine - e0);
      Engine.run engine;
      let per_call = float_of_int !events /. float_of_int (n + 1) in
      check_ceiling
        (Printf.sprintf "Env.try_syscall (%s, %.2f events per call)" (Env.kind_name kind)
           per_call)
        ~ceiling:zero !words)
    [ Env.Native; Env.Kvm Virt_config.default; Env.Docker ]

(* 9 words, however long the label: the child's state buffer and
   record and the label hash's result box.  Handing the fresh state to
   a helper boxes it first (12 words); a [String.iter] hash boxes two
   [int64]s per character (15 words, plus 6 per byte). *)
let test_prng_split () =
  let parent = Prng.create 3 in
  List.iter
    (fun label ->
      check_ceiling
        (Printf.sprintf "Prng.split (%d-byte label)" (String.length label))
        ~ceiling:(exactly 9.0)
        (words_per_op ~n:10_000 (fun () -> ignore (Prng.split parent label))))
    [ ""; "tenant-12345"; String.make 64 'x' ]

(* A churned tenant's guest kernel, 4 cores and 2 GB, with its
   background daemons (the fraction is the engine's queues growing over
   the 200 boots).  A stripe group's slot array is made on its first
   touch, and a fresh guest has touched none: making all six at boot
   costs 194 words more.  A per-byte boxing label hash in its PRNG
   splits costs another 279. *)
let test_kernel_boot () =
  let engine = Engine.create ~seed:1 () in
  check_ceiling "Kernel.boot (4 cores, 2 GB)" ~ceiling:(exactly 581.72)
    (words_per_op ~n:200 (fun () ->
         ignore
           (Kernel.boot ~engine ~config:Kernel_config.default ~id:7 ~cores:4
              ~mem_mb:2048 ())))

(* The result's box and nothing else, even inside three overlapping
   flash windows (a fourth lies ahead): a fold over the flashes costs
   11 words plus 2 per window. *)
let test_next_gap () =
  let day_ns = 2e9 in
  let flash from_ns until_ns boost = { Workload.from_ns; until_ns; boost } in
  let profile =
    {
      (Workload.make ~rng:(Prng.create 1) ~day_ns ~horizon_ns:day_ns
         ~mean_rate_per_s:25.0)
      with
      Workload.flashes =
        [ flash 4e8 4.5e8 2.0; flash 1e9 1.1e9 4.0; flash 3.9e8 5e8 1.5; flash 4.1e8 4.3e8 3.0 ];
    }
  in
  let now = 4.2e8 in
  let rng = Prng.create 12 in
  check_ceiling "Workload.next_gap" ~ceiling:(exactly 2.0)
    (words_per_op ~n:100_000 (fun () ->
         ignore (Workload.next_gap profile ~day_ns rng ~now)))

(* One call that faults once and then completes, through the retry
   loop varbench and noise ranks share, from a rank in the app's unit
   (0) and one in a noise unit (1) of a background-free native node.
   Nothing: the faulted attempt's entry-path delay, the backoff's delay
   and the completed attempt's two delays all run in place, and the
   backoff's duration goes through the delay cell.  A boxed duration
   costs 2 words; a retry closure built per call 7; a context built per
   attempt 5 each, a latency in each outcome 4. *)
let test_retry_call () =
  let engine = Engine.create ~seed:1 () in
  let env =
    Env.deploy ~engine
      ~kernel_config:(Kernel_config.without_background Kernel_config.default)
      Env.Native
      (Partition.equal_split ~units:2 ~total_cores:2 ~total_mem_mb:2048)
  in
  let faults = ref false in
  Env.set_fault_ctl env
    (Some
       (fun ~rank:_ _ ->
         faults := not !faults;
         if !faults then Some Env.EAGAIN else None));
  let call =
    { Program.spec = Option.get (Syscalls.by_name "getpid");
      arg = { Arg.size = 0; obj = 0; flags = 0 } }
  in
  let n = 20_000 in
  List.iter
    (fun (name, rank) ->
      let counters = Retry.counters () in
      let words = ref infinity in
      Engine.spawn engine (fun () ->
          words := words_per_op ~n (fun () -> ignore (Retry.call counters env ~rank call)));
      Engine.run engine;
      Alcotest.(check (pair int int)) (name ^ ": one retry per call") (n + 1, n + 1)
        (counters.Retry.retries, counters.Retry.issued);
      check_ceiling ("Retry.call, faulted once, " ^ name) ~ceiling:zero !words)
    [ ("harness rank", 0); ("noise rank", 1) ]

(* A lock pair under a fault plan whose preemptions never fire: one
   whose class matches the lock's and one whose class does not.  The
   hook resolves the lock's name to its matching preemptions on the
   warm-up pair and then draws one chance per pair, so the pair costs
   what it costs unfaulted.  Resolving the class and walking the plan
   through a closure on every acquisition costs 24 words. *)
let test_faulted_lock_pair () =
  let n = 20_000 in
  let engine = Engine.create ~seed:1 () in
  let env =
    Env.deploy ~engine
      ~kernel_config:(Kernel_config.without_background Kernel_config.default)
      Env.Native
      (Partition.equal_split ~units:1 ~total_cores:1 ~total_mem_mb:1024)
  in
  let preempt lock_class =
    Fault_plan.Lock_preemption { lock_class; probability = 1e-12; stretch_ns = 100.0 }
  in
  let kf =
    Kfault.arm ~env
      ~plan:{ Fault_plan.name = "alloc"; actions = [ preempt "journal"; preempt "alloc" ] }
      ~seed:3 ()
  in
  let lock = Lock.create ~engine ~name:"k0.alloc[3]" in
  let words = ref infinity in
  Engine.spawn engine (fun () ->
      words :=
        words_per_op ~n (fun () ->
            Lock.acquire lock;
            Lock.release lock));
  Engine.run engine;
  Alcotest.(check int) "never fired" 0 (Kfault.stats kf).Kfault.lock_preemptions;
  check_ceiling "Lock.acquire/release (preemption plan)" ~ceiling:zero !words

(* Every call a compiled app issues, at an argument outside the call's
   own model: each call's first size at object 37, a 512-byte
   [recvfrom] and shore's 16,384-byte [fsync].  A program rebuilt per
   call costs its lists and [Dist] values: 22 words for [futex_wake]. *)
let test_request_calls_memoised () =
  List.iter
    (fun app ->
      let compiled = Service.compile app in
      let spec name =
        List.find (fun (s : Spec.t) -> s.Spec.name = name) (Service.specs compiled)
      in
      let check (s : Spec.t) (arg : Arg.t) =
        check_ceiling
          (Printf.sprintf "%s: %s(%s)" app.Apps.name s.Spec.name (Arg.to_string arg))
          ~ceiling:zero
          (words_per_op ~n:1_000 (fun () -> ignore (s.Spec.ops arg)))
      in
      List.iter
        (fun (s : Spec.t) ->
          check s { Arg.size = s.Spec.arg_model.Arg.sizes.(0); obj = 37; flags = 0 })
        (Service.specs compiled);
      check (spec "recvfrom") { Arg.size = 512; obj = 37; flags = 1 };
      if app.Apps.name = "shore" then
        check (spec "fsync") { Arg.size = 16_384; obj = 5; flags = 3 })
    Apps.all

(* One silo request on a 1-rank Docker env without background daemons,
   after 500 requests have filled the memos its rank reaches and the
   contexts of the keys it calls with: its delays that do not run in
   place, its five calls' kernel work and one issued argument per
   call.  An [issue] closure
   per request, a [find] closure per mix pick and a second argument
   record per call cost 35 words more; a context built per call 25. *)
let test_silo_request () =
  let engine = Engine.create ~seed:1 () in
  let env =
    Env.deploy ~engine
      ~kernel_config:(Kernel_config.without_background Kernel_config.default)
      Env.Docker
      (Partition.equal_split ~units:1 ~total_cores:1 ~total_mem_mb:1024)
  in
  let compiled = Service.compile (Option.get (Apps.by_name "silo")) in
  let rng = Prng.create 9 in
  let request () = Service.handle compiled ~env ~rank:0 ~rng () in
  let words = ref infinity in
  Engine.spawn engine (fun () ->
      for _ = 1 to 500 do
        request ()
      done;
      words := words_per_op ~n:2_000 request);
  Engine.run engine;
  check_ceiling "Service.handle (silo, docker)" ~ceiling:(exactly 40.22) !words

let suite =
  [
    Alcotest.test_case "delay <= 4 words" `Quick test_delay;
    Alcotest.test_case "Welford.add allocates nothing" `Quick test_welford_add;
    Alcotest.test_case "Prng.int/chance allocate nothing" `Quick test_prng;
    Alcotest.test_case "lock pair <= 0 words" `Quick test_lock_pair;
    Alcotest.test_case "memo hit allocates nothing" `Quick test_memo_hit;
    Alcotest.test_case "Vm.boot <= 666 words" `Quick test_vm_boot;
    Alcotest.test_case "Instance.boot <= 472 words" `Quick test_instance_boot;
    Alcotest.test_case "stripe hit allocates nothing" `Quick test_stripe_hit;
    Alcotest.test_case "streaming Streamstat.add allocates nothing" `Quick
      test_streaming_add;
    Alcotest.test_case "Dist.sample boxes only its result" `Quick test_dist_sample;
    Alcotest.test_case "exec_program [Cpu] is one delay" `Quick test_exec_cpu;
    Alcotest.test_case "With_lock body builds no closure" `Quick test_with_lock_body;
    Alcotest.test_case "Env.try_syscall per call" `Quick test_try_syscall;
    Alcotest.test_case "observed delay emits without a closure" `Quick
      test_observed_delay;
    Alcotest.test_case "Prng.split does not grow with the label" `Quick test_prng_split;
    Alcotest.test_case "Kernel.boot of a churned guest" `Quick test_kernel_boot;
    Alcotest.test_case "Workload.next_gap boxes only its result" `Quick test_next_gap;
    Alcotest.test_case "a retried call builds no closure" `Quick test_retry_call;
    Alcotest.test_case "analyzed delay costs one probe's events" `Quick
      test_analyzed_delay;
    Alcotest.test_case "analyzed lock pair allocates nothing" `Quick
      test_analyzed_lock_pair;
    Alcotest.test_case "faulted lock pair allocates nothing" `Quick test_faulted_lock_pair;
    Alcotest.test_case "request calls hit their memos" `Quick test_request_calls_memoised;
    Alcotest.test_case "silo request allocates its events" `Quick test_silo_request;
    Alcotest.test_case "two Engine.now reads share one box" `Quick test_now_boxes_once;
    Alcotest.test_case "contended lock hands off by ticket" `Quick test_contended_lock;
    Alcotest.test_case "barrier generation parks by ticket" `Quick
      test_barrier_generation;
    Alcotest.test_case "Dist.sample_into allocates nothing" `Quick test_dist_sample_into;
    Alcotest.test_case "a delay that runs in place allocates nothing" `Quick
      test_delay_in_place;
  ]
