(* Layer rows: each calls one layer's public functions directly, on
   inputs drawn from the seed workloads, and reports host time (and,
   where allocation is the portable signal, minor words) per operation,
   the minimum over [reps] repetitions.  Every row is measured on every
   traced run, whatever the workload, so each row is always a fresh
   measurement. *)

module K = Ksurf
module Engine = K.Engine
module Heap = Ksurf_sim.Heap

type row = { name : string; unit_ : string; value : float }

(* Min over [reps] of (host ns, minor words) per op.  [prepare] builds
   the untimed state; [run] does the work and returns its op count. *)
let per_op ~reps ~prepare ~run =
  let best_ns = ref infinity and best_words = ref infinity in
  for _ = 1 to reps do
    let state = prepare () in
    let w0 = Gc.minor_words () in
    let t0 = K.Clock.monotonic_ns () in
    let ops = run state in
    let ns = Int64.to_float (Int64.sub (K.Clock.monotonic_ns ()) t0) in
    let words = Gc.minor_words () -. w0 in
    let ops = float (max 1 ops) in
    best_ns := Float.min !best_ns (ns /. ops);
    best_words := Float.min !best_words (words /. ops)
  done;
  (!best_ns, !best_words)

let no_state () = ()

(* --- sim.engine ------------------------------------------------------ *)

let delays ~procs ~steps ~observed () =
  let engine = Engine.create ~seed:7 () in
  if observed then Engine.add_probe engine ignore;
  for _ = 1 to procs do
    Engine.spawn engine (fun () ->
        for _ = 1 to steps do
          Engine.delay 10.0
        done)
  done;
  Engine.run engine;
  Engine.events_executed engine

(* One parked process and one waker a tick apart: each round is one
   suspend and one wake. *)
let suspend_wake ~rounds () =
  let engine = Engine.create ~seed:7 () in
  let slot = ref None in
  Engine.spawn engine (fun () ->
      for _ = 1 to rounds do
        Engine.suspend (fun wake -> slot := Some wake)
      done);
  Engine.spawn engine (fun () ->
      for _ = 1 to rounds do
        Engine.delay 1.0;
        match !slot with
        | Some wake ->
            slot := None;
            wake ()
        | None -> ()
      done);
  Engine.run engine;
  rounds

let spawns ~n () =
  let engine = Engine.create ~seed:7 () in
  for _ = 1 to n do
    Engine.spawn engine ignore
  done;
  Engine.run engine;
  n

(* --- sim.heap: push + drop at a steady depth ------------------------- *)

let heap_prepare ~depth ~ops () =
  let rng = K.Prng.create 11 in
  let h = Heap.create () in
  for i = 1 to depth do
    Heap.push h ~time:(K.Prng.float rng 1e6) ~seq:i ~pid:0 i
  done;
  (h, Array.init ops (fun _ -> K.Prng.float rng 1e6))

let heap_run (h, steps) =
  Array.iteri
    (fun i step ->
      let t = Heap.top_time h in
      Heap.drop h;
      Heap.push h ~time:(t +. step) ~seq:(i + 1_000_000) ~pid:0 i)
    steps;
  Array.length steps

(* --- sim.sync ---------------------------------------------------------- *)

let lock_holds ~procs ~holds () =
  let engine = Engine.create ~seed:7 () in
  let lock = K.Lock.create ~engine ~name:"ledger.lock" in
  for _ = 1 to procs do
    Engine.spawn engine (fun () ->
        for _ = 1 to holds do
          K.Lock.with_hold lock 1.0
        done)
  done;
  Engine.run engine;
  procs * holds

let barrier_arrivals ~parties ~rounds () =
  let engine = Engine.create ~seed:7 () in
  let barrier = K.Barrier.create ~engine ~name:"ledger.barrier" ~parties in
  for _ = 1 to parties do
    Engine.spawn engine (fun () ->
        for _ = 1 to rounds do
          K.Barrier.arrive barrier
        done)
  done;
  Engine.run engine;
  parties * rounds

let mailbox_msgs ~n () =
  let engine = Engine.create ~seed:7 () in
  let mb = K.Mailbox.create ~engine ~name:"ledger.mailbox" in
  Engine.spawn engine (fun () ->
      for i = 1 to n do
        K.Mailbox.send mb i;
        Engine.delay 1.0
      done);
  Engine.spawn engine (fun () ->
      for _ = 1 to n do
        ignore (K.Mailbox.recv mb)
      done);
  Engine.run engine;
  n

(* --- kernel.instance: the corpus on a daemon-free 64-core kernel ----- *)

let corpus_calls (inputs : Workloads.inputs) =
  Array.to_list (K.Corpus.programs inputs.corpus)
  |> List.concat_map (fun (p : K.Program.t) -> p.calls)

let instance_calls ~calls ~repeat () =
  let engine = Engine.create ~seed:7 () in
  let inst =
    K.Instance.boot ~engine ~config:K.Kernel_config.default ~id:0 ~cores:64
      ~mem_mb:32768 ()
  in
  Engine.spawn engine (fun () ->
      for r = 1 to repeat do
        List.iteri
          (fun i (c : K.Program.call) ->
            let ctx = { K.Instance.core = i mod 64; tenant = 0; key = i + r; cgroup = None } in
            K.Instance.exec_program inst ctx (c.spec.K.Spec.ops c.arg))
          calls
      done);
  Engine.run engine;
  repeat * List.length calls

(* --- env: one rank's calls through each deployment's wrapper --------- *)

let env_calls ~kind ~calls ~repeat () =
  let engine = Engine.create ~seed:7 () in
  let env = K.Env.deploy ~engine kind (K.Partition.table1 64) in
  let finished = ref false in
  Engine.spawn engine (fun () ->
      for _ = 1 to repeat do
        List.iter
          (fun (c : K.Program.call) -> ignore (K.Env.exec_syscall env ~rank:0 c.spec c.arg))
          calls
      done;
      finished := true);
  (* Background daemons never drain; stop when the rank is done. *)
  Engine.run ~stop:(fun () -> !finished) engine;
  repeat * List.length calls

(* ------------------------------------------------------------------ *)

let rows ~quick ~workdir (inputs : Workloads.inputs) =
  let reps = if quick then 1 else 5 in
  let scale n = if quick then max 1 (n / 20) else n in
  let row name unit_ value = { name; unit_; value } in
  let ns_words ~prepare ~run = per_op ~reps ~prepare ~run in
  let ns ~prepare ~run = fst (ns_words ~prepare ~run) in
  let timed_s f = ns ~prepare:no_state ~run:(fun () -> f (); 1) /. 1e9 in
  let calls = corpus_calls inputs in
  let delay_ns, delay_words =
    ns_words ~prepare:no_state
      ~run:(delays ~procs:16 ~steps:(scale 2000) ~observed:false)
  in
  let heap depth =
    ns_words ~prepare:(heap_prepare ~depth ~ops:(scale 200_000)) ~run:heap_run
  in
  let h64_ns, h64_words = heap 64 and h4096_ns, h4096_words = heap 4096 in
  let by_category =
    List.map
      (fun cat ->
        let calls = List.filter (fun (c : K.Program.call) -> K.Spec.in_category c.spec cat) calls in
        let v =
          if calls = [] then 0.0
          else ns ~prepare:no_state ~run:(instance_calls ~calls ~repeat:(scale 20))
        in
        row ("kernel.instance.ns_per_call." ^ K.Category.to_string cat) "ns" v)
      K.Category.all
  in
  let _, instance_words =
    ns_words ~prepare:no_state ~run:(instance_calls ~calls ~repeat:(scale 20))
  in
  let env_rows =
    List.map
      (fun kind ->
        row
          (Printf.sprintf "env.%s.ns_per_call" (K.Env.kind_name kind))
          "ns"
          (ns ~prepare:no_state ~run:(env_calls ~kind ~calls ~repeat:(scale 20))))
      [ K.Env.Native; K.Env.Multikernel; Workloads.kvm; K.Env.Docker ]
  in
  let boots f =
    ns
      ~prepare:(fun () -> Engine.create ~seed:7 ())
      ~run:(fun engine ->
        let n = scale 200 in
        for id = 1 to n do
          f ~engine ~id
        done;
        n)
    /. 1e3
  in
  let harness_ns =
    ns
      ~prepare:(fun () ->
        let engine = Engine.create ~seed:inputs.seed () in
        K.Env.deploy ~engine K.Env.Native
          (K.Partition.equal_split ~units:1 ~total_cores:8 ~total_mem_mb:8192))
      ~run:(fun env ->
        K.Harness.total_invocations
          (K.Harness.run ~env ~corpus:inputs.corpus
             ~params:{ K.Harness.iterations = 2; warmup_iterations = 0 }
             ()))
  in
  let runner_us =
    ns ~prepare:no_state ~run:(fun () ->
        let requests = scale 400 in
        let config = { (Workloads.runner_config inputs) with K.Runner.requests } in
        let app = List.hd K.Apps.all in
        ignore
          (K.Runner.run_single_node ~app ~kind:K.Env.Docker ~contended:false ~config
             ~noise_corpus:inputs.corpus ());
        requests)
    /. 1e3
  in
  let fleet_us =
    ns ~prepare:no_state ~run:(fun () ->
        let cfg =
          Workloads.fleet_config inputs ~policy:(K.Tenant_policy.Static K.Tenant_policy.Docker)
            ~requests:(scale 4000)
        in
        (K.Fleet.run { cfg with K.Fleet.tenants = 16 }).completed)
    /. 1e3
  in
  let samples = Array.init 4000 (fun i -> float ((i * 7919) mod 4001)) in
  let adds make =
    ns ~prepare:no_state ~run:(fun () ->
        let s = make () in
        Array.iter (K.Streamstat.add s) samples;
        Array.length samples)
  in
  let empty_cell_us =
    K.Pool.with_pool ~jobs:2 (fun pool ->
        let cells = List.init (scale 2000) Fun.id in
        ns ~prepare:no_state ~run:(fun () -> List.length (K.Pool.map ~pool Fun.id cells))
        /. 1e3)
  in
  let file = Filename.concat workdir (Printf.sprintf "row-%d" (Unix.getpid ())) in
  let persist_us =
    ns
      ~prepare:(fun () -> K.Recov_journal.load ~flush_every:1 ~path:file ())
      ~run:(fun j ->
        let n = 10 in
        for i = 1 to n do
          K.Recov_journal.record j (string_of_int i)
        done;
        K.Fileio.remove file;
        n)
    /. 1e3
  in
  let write_us =
    ns ~prepare:no_state ~run:(fun () ->
        let n = 10 in
        for _ = 1 to n do
          K.Fileio.write_atomic ~path:file (fun oc -> output_string oc (String.make 1024 'x'))
        done;
        K.Fileio.remove file;
        n)
    /. 1e3
  in
  let all_deploys () =
    List.iter
      (fun (kind, partition) -> Workloads.boot ~seed:inputs.seed kind partition)
      (Workloads.table1
         ((K.Env.Native, 1) :: (K.Env.Docker, 64)
         :: List.map (fun n -> (Workloads.kvm, n)) K.Partition.table1_rows))
  in
  [
    row "sim.engine.ns_per_delay" "ns" delay_ns;
    row "sim.engine.words_per_delay" "words" delay_words;
    row "sim.engine.ns_per_delay_observed" "ns"
      (ns ~prepare:no_state ~run:(delays ~procs:16 ~steps:(scale 2000) ~observed:true));
    row "sim.engine.ns_per_suspend_wake" "ns"
      (ns ~prepare:no_state ~run:(suspend_wake ~rounds:(scale 20_000)));
    row "sim.engine.ns_per_spawn" "ns" (ns ~prepare:no_state ~run:(spawns ~n:(scale 20_000)));
    row "sim.heap.ns_per_op.d64" "ns" h64_ns;
    row "sim.heap.ns_per_op.d4096" "ns" h4096_ns;
    row "sim.heap.words_per_op.d64" "words" h64_words;
    row "sim.heap.words_per_op.d4096" "words" h4096_words;
    row "sim.sync.ns_per_hold_uncontended" "ns"
      (ns ~prepare:no_state ~run:(lock_holds ~procs:1 ~holds:(scale 20_000)));
    row "sim.sync.ns_per_handoff" "ns"
      (ns ~prepare:no_state ~run:(lock_holds ~procs:8 ~holds:(scale 2_500)));
    row "sim.sync.ns_per_barrier_arrive" "ns"
      (ns ~prepare:no_state ~run:(barrier_arrivals ~parties:8 ~rounds:(scale 2_500)));
    row "sim.mailbox.ns_per_msg" "ns" (ns ~prepare:no_state ~run:(mailbox_msgs ~n:(scale 20_000)));
  ]
  @ by_category
  @ [ row "kernel.instance.words_per_call" "words" instance_words ]
  @ [
      row "kernel.boot_us" "us"
        (boots (fun ~engine ~id ->
             ignore (K.Kernel.boot ~engine ~id ~cores:8 ~mem_mb:8192 ())));
      row "virt.vm_boot_us" "us"
        (boots (fun ~engine ~id ->
             ignore (K.Vm.boot ~engine ~id { K.Vm.vcpus = 1; mem_mb = 512 })));
    ]
  @ env_rows
  @ [
      row "varbench.harness.host_ns_per_call" "ns" harness_ns;
      row "tailbench.runner.host_us_per_request" "us" runner_us;
      row "tenant.fleet.host_us_per_request" "us" fleet_us;
      row "stats.streamstat.ns_per_add_exact" "ns" (adds (fun () -> K.Streamstat.create ()));
      row "stats.streamstat.ns_per_add_streaming" "ns" (adds K.Streamstat.streaming);
      row "par.pool.us_per_empty_cell" "us" empty_cell_us;
      row "recov.journal.us_per_persist" "us" persist_us;
      row "util.fileio.write_atomic_us" "us" write_us;
      row "syzgen.corpus_s" "s"
        (timed_s (fun () -> ignore (Workloads.make_inputs ~scale:inputs.scale ~seed:inputs.seed)));
      row "env.deploy_s" "s" (timed_s all_deploys);
    ]
