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

let check_ceiling name ~ceiling words =
  if words > ceiling then
    Alcotest.failf "%s: %.2f minor words per op, ceiling %.2f" name words ceiling

let test_delay () =
  let n = 20_000 in
  let engine = Engine.create ~seed:1 () in
  Engine.spawn engine (fun () ->
      for _ = 1 to n do
        Engine.delay 10.0
      done);
  let w0 = Gc.minor_words () in
  Engine.run engine;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check int) "every delay executed" (n + 1) (Engine.events_executed engine);
  check_ceiling "Engine.delay (no probe)" ~ceiling:10.0 words

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
  check_ceiling "Lock.acquire/release (uncontended)" ~ceiling:12.0 !words

let test_memo_hit () =
  let spec = Option.get (Syscalls.by_name "write") in
  let arg = { Arg.size = 4096; obj = 3; flags = 3 } in
  check_ceiling "spec.ops (memo hit)" ~ceiling:zero
    (words_per_op ~n:100_000 (fun () -> ignore (spec.Spec.ops arg)))

(* Boots allocate per striped lock touched, not per stripe counted: a
   4-vCPU guest measures about 1,160 words and a 64-core host 714.  A
   boot that creates every stripe up front costs over 17,000. *)
let test_vm_boot () =
  let engine = Engine.create ~seed:1 () in
  let id = ref 0 in
  check_ceiling "Vm.boot (4 vCPUs)" ~ceiling:2_500.0
    (words_per_op ~n:200 (fun () ->
         incr id;
         ignore (Vm.boot ~engine ~id:!id { Vm.vcpus = 4; mem_mb = 512 })))

let test_instance_boot () =
  let engine = Engine.create ~seed:1 () in
  check_ceiling "Instance.boot (64 cores)" ~ceiling:1_000.0
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

let suite =
  [
    Alcotest.test_case "delay <= 10 words" `Quick test_delay;
    Alcotest.test_case "Welford.add allocates nothing" `Quick test_welford_add;
    Alcotest.test_case "Prng.int/chance allocate nothing" `Quick test_prng;
    Alcotest.test_case "lock pair <= 12 words" `Quick test_lock_pair;
    Alcotest.test_case "memo hit allocates nothing" `Quick test_memo_hit;
    Alcotest.test_case "Vm.boot <= 2500 words" `Quick test_vm_boot;
    Alcotest.test_case "Instance.boot ceiling" `Quick test_instance_boot;
    Alcotest.test_case "stripe hit allocates nothing" `Quick test_stripe_hit;
  ]
