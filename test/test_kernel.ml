open Ksurf

(* Kernel model: categories, config, caches, instance, background. *)

let quiet_instance ?(cores = 4) ?(mem_mb = 2048) engine =
  Instance.boot ~engine ~config:Kernel_config.quiet ~id:0 ~cores ~mem_mb ()

let ctx ?(core = 0) ?(tenant = 0) ?(key = 0) ?cgroup () =
  { Instance.core; tenant; key; cgroup }

(* --- categories ---------------------------------------------------- *)

let test_category_roundtrip () =
  List.iter
    (fun c ->
      Alcotest.(check bool) "roundtrip" true
        (Category.of_string (Category.to_string c) = Some c))
    Category.all;
  Alcotest.(check bool) "unknown" true (Category.of_string "nonsense" = None)

let test_category_index_bijective () =
  let indices = List.map Category.index Category.all in
  Alcotest.(check (list int)) "0..5" [ 0; 1; 2; 3; 4; 5 ] indices

(* --- config -------------------------------------------------------- *)

let test_config_ablations () =
  let c = Kernel_config.default in
  Alcotest.(check bool) "default bg on" true c.Kernel_config.enable_background;
  Alcotest.(check bool) "bg off" false
    (Kernel_config.without_background c).Kernel_config.enable_background;
  Alcotest.(check bool) "tlb off" false
    (Kernel_config.without_tlb_shootdown c).Kernel_config.enable_tlb_shootdown;
  Alcotest.(check bool) "timer off" false
    (Kernel_config.without_timer_noise c).Kernel_config.enable_timer_noise;
  Alcotest.(check bool) "quiet has everything off" false
    Kernel_config.quiet.Kernel_config.enable_background

(* --- caches --------------------------------------------------------- *)

let test_cache_pressure () =
  let c = Caches.create ~name:"t" ~base_hit_rate:0.9 ~pressure_per_sharer:0.01 in
  Alcotest.(check (float 1e-9)) "single tenant" 0.9 (Caches.hit_rate c);
  Caches.set_sharers c 11;
  Alcotest.(check (float 1e-9)) "10 extra sharers" 0.8 (Caches.hit_rate c);
  Caches.set_sharers c 1000;
  Alcotest.(check (float 1e-9)) "floored at 0.5" 0.5 (Caches.hit_rate c)

let test_cache_counters () =
  let c = Caches.create ~name:"t" ~base_hit_rate:1.0 ~pressure_per_sharer:0.0 in
  let rng = Prng.create 1 in
  for _ = 1 to 10 do
    Alcotest.(check bool) "rate 1.0 always hits" true (Caches.probe c rng)
  done;
  Alcotest.(check int) "lookups" 10 (Caches.lookups c);
  Alcotest.(check int) "no misses" 0 (Caches.misses c)

(* --- instance -------------------------------------------------------- *)

let test_boot_validation () =
  let engine = Engine.create () in
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "0 cores" true
    (raises (fun () ->
         ignore
           (Instance.boot ~engine ~config:Kernel_config.quiet ~id:0 ~cores:0
              ~mem_mb:1 ())));
  Alcotest.(check bool) "0 mem" true
    (raises (fun () ->
         ignore
           (Instance.boot ~engine ~config:Kernel_config.quiet ~id:0 ~cores:1
              ~mem_mb:0 ())))

let test_surface_area () =
  let engine = Engine.create () in
  let full = quiet_instance ~cores:64 ~mem_mb:32768 engine in
  let tiny = quiet_instance ~cores:1 ~mem_mb:512 engine in
  Alcotest.(check (float 1e-9)) "full machine" 1.0 (Instance.surface_area full);
  Alcotest.(check bool) "tiny is much smaller" true
    (Instance.surface_area tiny < 0.02)

let test_lock_striping () =
  let engine = Engine.create () in
  let inst = quiet_instance ~cores:8 engine in
  (* Global locks: same object regardless of context. *)
  let a = Instance.lock inst (ctx ~core:0 ()) Ops.Journal in
  let b = Instance.lock inst (ctx ~core:5 ~tenant:3 ()) Ops.Journal in
  Alcotest.(check bool) "journal is global" true (a == b);
  (* Runqueues: per core. *)
  let r0 = Instance.lock inst (ctx ~core:0 ()) Ops.Runqueue in
  let r1 = Instance.lock inst (ctx ~core:1 ()) Ops.Runqueue in
  Alcotest.(check bool) "distinct runqueues" true (r0 != r1);
  (* mmap_sem: per tenant. *)
  let m0 = Instance.rwlock inst (ctx ~tenant:0 ()) Ops.Mmap_sem in
  let m1 = Instance.rwlock inst (ctx ~tenant:1 ()) Ops.Mmap_sem in
  Alcotest.(check bool) "distinct address spaces" true (m0 != m1)

(* Striped locks are created on first touch; these pin that laziness
   changes nothing a caller can see. *)
let test_stripe_identity () =
  let engine = Engine.create () in
  let inst = quiet_instance engine in
  let c = ctx ~tenant:2 ~key:5 () in
  let a = Instance.lock inst c Ops.Inode in
  Alcotest.(check bool) "same ctx, same lock" true (a == Instance.lock inst c Ops.Inode);
  (* 2 * 7 + 5 = 0 * 7 + 19: another context on the same stripe. *)
  Alcotest.(check bool) "same stripe, same lock" true
    (a == Instance.lock inst (ctx ~tenant:0 ~key:19 ()) Ops.Inode);
  let m = Instance.rwlock inst (ctx ~tenant:9 ()) Ops.Mmap_sem in
  Alcotest.(check bool) "mmap_sem stripe reused" true
    (m == Instance.rwlock inst (ctx ~tenant:73 ()) Ops.Mmap_sem)

let test_stripes_distinct () =
  let engine = Engine.create () in
  let inst = quiet_instance engine in
  let futexes =
    List.init 64 (fun key -> Instance.lock inst (ctx ~key ()) Ops.Futex_bucket)
  in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b -> if i < j && a == b then Alcotest.failf "futex %d == futex %d" i j)
        futexes)
    futexes;
  Alcotest.(check bool) "pipe stripes differ" true
    (Instance.lock inst (ctx ~key:0 ()) Ops.Pipe
    != Instance.lock inst (ctx ~key:1 ()) Ops.Pipe)

let test_stripe_names () =
  let engine = Engine.create () in
  let inst =
    Instance.boot ~engine ~config:Kernel_config.quiet ~id:1003 ~cores:4 ~mem_mb:512 ()
  in
  let check label expected l = Alcotest.(check string) label expected (Lock.name l) in
  check "inode" "k1003.inode[7]" (Instance.lock inst (ctx ~key:7 ()) Ops.Inode);
  check "runqueue" "k1003.runqueue[3]" (Instance.lock inst (ctx ~core:7 ()) Ops.Runqueue);
  check "page cache tree" "k1003.pct[2]"
    (Instance.lock inst (ctx ~tenant:1 ~key:1 ()) Ops.Page_cache_tree);
  check "pipe" "k1003.pipe[13]" (Instance.lock inst (ctx ~tenant:1 ()) Ops.Pipe);
  check "futex" "k1003.futex[31]" (Instance.lock inst (ctx ~tenant:1 ()) Ops.Futex_bucket);
  check "global" "k1003.journal" (Instance.lock inst (ctx ()) Ops.Journal)

let test_fresh_report () =
  let engine = Engine.create () in
  let inst = quiet_instance engine in
  let report = Instance.lock_contention_report inst in
  Alcotest.(check (list string)) "all 13 groups"
    [ "tasklist"; "zone"; "dcache"; "journal"; "msgq_registry"; "cred"; "audit";
      "cgroup_css"; "runqueue"; "page_cache_tree"; "inode"; "pipe"; "futex" ]
    (List.map (fun r -> r.Instance.lock_name) report);
  List.iter
    (fun r ->
      Alcotest.(check int) r.Instance.lock_name 0 r.Instance.acquisitions;
      Alcotest.(check int) r.Instance.lock_name 0 r.Instance.contended;
      Alcotest.(check (float 0.0)) r.Instance.lock_name 0.0 r.Instance.mean_wait_ns;
      Alcotest.(check (float 0.0)) r.Instance.lock_name 0.0 r.Instance.max_wait_ns)
    report

let test_exec_advances_time () =
  let engine = Engine.create () in
  let inst = quiet_instance engine in
  let elapsed = ref 0.0 in
  Engine.spawn engine (fun () ->
      let t0 = Engine.now engine in
      Instance.exec_program inst (ctx ())
        [ Ops.Cpu 100.0; Ops.Lock (Ops.Tasklist, Dist.constant 50.0); Ops.Cpu 25.0 ];
      elapsed := Engine.now engine -. t0);
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "sum of ops" 175.0 !elapsed

let test_uniprocessor_shootdown_is_local () =
  (* cores=1: no IPIs, just the local flush. *)
  let engine = Engine.create () in
  let inst = quiet_instance ~cores:1 engine in
  let config =
    { Kernel_config.quiet with Kernel_config.enable_tlb_shootdown = true }
  in
  let inst1 =
    Instance.boot ~engine ~config ~id:1 ~cores:1 ~mem_mb:512 ()
  in
  ignore inst;
  let elapsed = ref nan in
  Engine.spawn engine (fun () ->
      let t0 = Engine.now engine in
      Instance.exec_op inst1 (ctx ()) Ops.Tlb_shootdown;
      elapsed := Engine.now engine -. t0);
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "local flush only" 200.0 !elapsed

let test_multicore_shootdown_costs_more () =
  let config =
    { Kernel_config.quiet with Kernel_config.enable_tlb_shootdown = true }
  in
  let run cores =
    let engine = Engine.create () in
    let inst = Instance.boot ~engine ~config ~id:0 ~cores ~mem_mb:512 () in
    let elapsed = ref nan in
    Engine.spawn engine (fun () ->
        let t0 = Engine.now engine in
        Instance.exec_op inst (ctx ()) Ops.Tlb_shootdown;
        elapsed := Engine.now engine -. t0);
    Engine.run engine;
    !elapsed
  in
  Alcotest.(check bool) "8 cores > 2 cores > 1 core" true
    (run 8 > run 2 && run 2 > run 1)

let test_cgroup_registration () =
  let engine = Engine.create () in
  let inst = quiet_instance engine in
  Alcotest.(check int) "none initially" 0 (Instance.cgroup_count inst);
  let a = Instance.register_cgroup inst in
  let b = Instance.register_cgroup inst in
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Alcotest.(check int) "two registered" 2 (Instance.cgroup_count inst)

let test_cgroup_charge_noop_without_cgroup () =
  let engine = Engine.create () in
  let inst = quiet_instance engine in
  let elapsed = ref nan in
  Engine.spawn engine (fun () ->
      let t0 = Engine.now engine in
      Instance.exec_op inst (ctx ()) Ops.Cgroup_charge;
      elapsed := Engine.now engine -. t0);
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "free without a cgroup" 0.0 !elapsed

let test_contention_emerges () =
  (* Two processes hammering the same global lock: one must wait. *)
  let engine = Engine.create () in
  let inst = quiet_instance engine in
  let ops = [ Ops.Lock (Ops.Dcache, Dist.constant 100.0) ] in
  let finish = ref [] in
  for tenant = 0 to 1 do
    Engine.spawn engine (fun () ->
        Instance.exec_program inst (ctx ~core:tenant ~tenant ()) ops;
        finish := Engine.now engine :: !finish)
  done;
  Engine.run engine;
  match List.sort compare !finish with
  | [ a; b ] ->
      Alcotest.(check (float 1e-9)) "first unimpeded" 100.0 a;
      Alcotest.(check (float 1e-9)) "second queued" 200.0 b
  | _ -> Alcotest.fail "expected two finishers"

let test_busy_ramps_under_load () =
  let engine = Engine.create () in
  let inst = quiet_instance ~cores:2 engine in
  Alcotest.(check (float 1e-9)) "idle initially" 0.0 (Instance.busy_fraction inst);
  for core = 0 to 1 do
    Engine.spawn engine (fun () ->
        for _ = 1 to 20_000 do
          Instance.exec_op inst (ctx ~core ()) (Ops.Cpu 500.0)
        done)
  done;
  Engine.run engine;
  Alcotest.(check bool) "busy after sustained load" true
    (Instance.busy_fraction inst > 0.1)

let test_take_activity_resets () =
  let engine = Engine.create () in
  let inst = quiet_instance engine in
  Engine.spawn engine (fun () ->
      Instance.exec_op inst (ctx ()) (Ops.Lock (Ops.Journal, Dist.constant 10.0)));
  Engine.run engine;
  Alcotest.(check int) "one fs op" 1 (Instance.take_activity inst Instance.Fs_activity);
  Alcotest.(check int) "reset after take" 0
    (Instance.take_activity inst Instance.Fs_activity)

let test_block_io_queues () =
  let engine = Engine.create () in
  let config =
    { Kernel_config.quiet with Kernel_config.block_queue_depth = 1;
      block_latency = Dist.constant 1000.0; block_bandwidth_ns_per_byte = 0.0 }
  in
  let inst = Instance.boot ~engine ~config ~id:0 ~cores:2 ~mem_mb:512 () in
  let last = ref nan in
  for i = 0 to 1 do
    Engine.spawn engine (fun () ->
        Instance.exec_op inst (ctx ~core:i ()) (Ops.Block_io { bytes = 0; write = false });
        last := Engine.now engine)
  done;
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "serialised on depth-1 device" 2000.0 !last

(* --- background daemons ---------------------------------------------- *)

let test_daemons_disabled () =
  let engine = Engine.create () in
  let inst = quiet_instance engine in
  Background.start inst;
  Alcotest.(check int) "no daemon events queued" 0 (Engine.pending engine)

(* The stock kernel spawns one process per daemon: jbd2, kswapd, the
   load balancer and the cgroup flusher. *)
let test_daemon_names () =
  let engine = Engine.create () in
  let inst =
    Instance.boot ~engine ~config:Kernel_config.default ~id:0 ~cores:4 ~mem_mb:2048 ()
  in
  Background.start inst;
  Alcotest.(check int) "four daemons" 4 (Engine.pending engine)

let test_journal_daemon_collides () =
  (* With heavy fs activity, the journal daemon's holds delay callers. *)
  let config =
    {
      Kernel_config.quiet with
      Kernel_config.enable_background = true;
      journal_commit_interval = Dist.constant 1e6;
      journal_commit_hold = Dist.constant 5e6;
    }
  in
  let engine = Engine.create ~seed:3 () in
  let inst = Instance.boot ~engine ~config ~id:0 ~cores:64 ~mem_mb:32768 () in
  Background.start inst;
  let max_latency = ref 0.0 in
  Engine.spawn engine (fun () ->
      for _ = 1 to 3_000 do
        let t0 = Engine.now engine in
        Instance.exec_op inst (ctx ())
          (Ops.Lock (Ops.Journal, Dist.constant 200.0));
        let dt = Engine.now engine -. t0 in
        if dt > !max_latency then max_latency := dt;
        Engine.delay 500.0
      done);
  Engine.run ~until:4e6 engine;
  Alcotest.(check bool) "some call queued behind a commit" true
    (!max_latency > 1e5)

let suite =
  [
    Alcotest.test_case "category roundtrip" `Quick test_category_roundtrip;
    Alcotest.test_case "category index" `Quick test_category_index_bijective;
    Alcotest.test_case "config ablations" `Quick test_config_ablations;
    Alcotest.test_case "cache pressure" `Quick test_cache_pressure;
    Alcotest.test_case "cache counters" `Quick test_cache_counters;
    Alcotest.test_case "boot validation" `Quick test_boot_validation;
    Alcotest.test_case "surface area" `Quick test_surface_area;
    Alcotest.test_case "lock striping" `Quick test_lock_striping;
    Alcotest.test_case "stripe identity" `Quick test_stripe_identity;
    Alcotest.test_case "stripes distinct" `Quick test_stripes_distinct;
    Alcotest.test_case "stripe names" `Quick test_stripe_names;
    Alcotest.test_case "fresh contention report" `Quick test_fresh_report;
    Alcotest.test_case "exec advances time" `Quick test_exec_advances_time;
    Alcotest.test_case "uniprocessor shootdown" `Quick
      test_uniprocessor_shootdown_is_local;
    Alcotest.test_case "multicore shootdown" `Quick
      test_multicore_shootdown_costs_more;
    Alcotest.test_case "cgroup registration" `Quick test_cgroup_registration;
    Alcotest.test_case "charge without cgroup" `Quick
      test_cgroup_charge_noop_without_cgroup;
    Alcotest.test_case "contention emerges" `Quick test_contention_emerges;
    Alcotest.test_case "busy ramps" `Quick test_busy_ramps_under_load;
    Alcotest.test_case "take_activity resets" `Quick test_take_activity_resets;
    Alcotest.test_case "block io queues" `Quick test_block_io_queues;
    Alcotest.test_case "daemons disabled" `Quick test_daemons_disabled;
    Alcotest.test_case "daemon names" `Quick test_daemon_names;
    Alcotest.test_case "journal daemon collides" `Quick
      test_journal_daemon_collides;
  ]
