open Ksurf

let quiet = Kernel_config.quiet
let kvm = Env.Kvm Virt_config.default

(* A call's latency, read from the clock around it as every harness
   reads it. *)
let timed_call env ~rank spec arg =
  let clock = Engine.clock (Env.engine env) in
  let t0 = clock.(0) in
  Env.exec_syscall env ~rank spec arg;
  clock.(0) -. t0

let test_partition_table1 () =
  List.iter
    (fun n ->
      let p = Partition.table1 n in
      Alcotest.(check int) "unit count" n (Partition.unit_count p);
      Alcotest.(check int) "total cores" 64 (Partition.total_cores p);
      Alcotest.(check int) "total memory" 32768 (Partition.total_mem_mb p))
    Partition.table1_rows;
  Alcotest.(check bool) "non-row rejected" true
    (try
       ignore (Partition.table1 5);
       false
     with Invalid_argument _ -> true)

let test_partition_uneven () =
  Alcotest.(check bool) "uneven cores" true
    (try
       ignore (Partition.equal_split ~units:3 ~total_cores:64 ~total_mem_mb:32768);
       false
     with Invalid_argument _ -> true)

let test_machines () =
  Alcotest.(check int) "epyc cores" 64 Machine.epyc.Machine.cores;
  Alcotest.(check int) "haswell cores" 48 Machine.haswell_node.Machine.cores;
  Alcotest.(check int) "virtualized cores" 64 Machine.virtualized_cores

let test_deploy_native () =
  let engine = Engine.create () in
  let env = Env.deploy ~engine ~kernel_config:quiet Env.Native (Partition.table1 1) in
  Alcotest.(check int) "64 ranks" 64 (Env.rank_count env);
  Alcotest.(check int) "one instance" 1 (List.length (Env.instances env));
  Alcotest.(check string) "kind name" "native" (Env.kind_name (Env.kind env))

let test_deploy_kvm_instances () =
  let engine = Engine.create () in
  let env = Env.deploy ~engine ~kernel_config:quiet kvm (Partition.table1 8) in
  Alcotest.(check int) "8 guest kernels" 8 (List.length (Env.instances env));
  Alcotest.(check int) "still 64 ranks" 64 (Env.rank_count env);
  (* Rank -> unit mapping is block-wise. *)
  let in_unit rank unit =
    Env.instance_of_rank env rank == List.nth (Env.instances env) unit
  in
  Alcotest.(check bool) "rank 0 in unit 0" true (in_unit 0 0);
  Alcotest.(check bool) "rank 8 in unit 1" true (in_unit 8 1);
  Alcotest.(check bool) "rank 63 in unit 7" true (in_unit 63 7)

let test_deploy_docker_shares_kernel () =
  let engine = Engine.create () in
  let env = Env.deploy ~engine ~kernel_config:quiet Env.Docker (Partition.table1 4) in
  Alcotest.(check int) "one shared instance" 1 (List.length (Env.instances env));
  let host = List.hd (Env.instances env) in
  Alcotest.(check int) "four cgroups" 4 (Instance.cgroup_count host)

let test_surface_area_ordering () =
  let engine = Engine.create () in
  let native = Env.deploy ~engine ~kernel_config:quiet Env.Native (Partition.table1 1) in
  let engine2 = Engine.create () in
  let vms = Env.deploy ~engine:engine2 ~kernel_config:quiet kvm (Partition.table1 64) in
  Alcotest.(check bool) "native surface much larger" true
    (Env.surface_area_of_rank native 0 > 10.0 *. Env.surface_area_of_rank vms 0)

let test_exec_syscall_latency () =
  let engine = Engine.create () in
  let env = Env.deploy ~engine ~kernel_config:quiet Env.Native (Partition.table1 1) in
  let spec = Option.get (Syscalls.by_name "getpid") in
  let latency = ref nan in
  Engine.spawn engine (fun () ->
      latency := timed_call env ~rank:0 spec Arg.default);
  Engine.run engine;
  (* entry (180 in quiet config? quiet inherits default entry) + 60 *)
  Alcotest.(check bool) "positive and small" true (!latency > 0.0 && !latency < 10_000.0)

let test_exec_latency_ordering_native_vs_kvm () =
  (* getpid: KVM must cost at least as much as native (exit overheads),
     comparing means over many calls. *)
  let spec = Option.get (Syscalls.by_name "getpid") in
  let mean_of kind =
    let engine = Engine.create ~seed:4 () in
    let env = Env.deploy ~engine ~kernel_config:quiet kind (Partition.table1 1) in
    let total = ref 0.0 in
    Engine.spawn engine (fun () ->
        for _ = 1 to 300 do
          total := !total +. timed_call env ~rank:0 spec Arg.default
        done);
    Engine.run engine;
    !total /. 300.0
  in
  Alcotest.(check bool) "kvm >= native" true (mean_of kvm > mean_of Env.Native)

let test_rank_out_of_range () =
  let engine = Engine.create () in
  let env = Env.deploy ~engine ~kernel_config:quiet Env.Native (Partition.table1 1) in
  let spec = Option.get (Syscalls.by_name "getpid") in
  Engine.spawn engine (fun () ->
      Env.exec_syscall env ~rank:99 spec Arg.default);
  Alcotest.(check bool) "raises" true
    (try
       Engine.run engine;
       false
     with Engine.Process_error (_, Invalid_argument _) -> true)

let test_partition_exceeding_machine () =
  let engine = Engine.create () in
  Alcotest.(check bool) "too many cores" true
    (try
       ignore
         (Env.deploy ~engine ~machine:Machine.haswell_node ~kernel_config:quiet
            Env.Native (Partition.table1 1));
       false
     with Invalid_argument _ -> true)

let test_barrier_cost_kind_dependent () =
  let engine = Engine.create () in
  let native = Env.deploy ~engine ~kernel_config:quiet Env.Native (Partition.table1 1) in
  let engine2 = Engine.create () in
  let kvm_env = Env.deploy ~engine:engine2 ~kernel_config:quiet kvm (Partition.table1 4) in
  Alcotest.(check bool) "virtio barrier costlier" true
    (Env.barrier_cost_per_party kvm_env > Env.barrier_cost_per_party native)

let test_busy_of_rank_starts_idle () =
  let engine = Engine.create () in
  let env = Env.deploy ~engine ~kernel_config:quiet Env.Docker (Partition.table1 4) in
  Alcotest.(check (float 1e-9)) "idle" 0.0 (Env.busy_of_rank env 0)

(* Each rank builds its context for a key on the key's first call and
   passes that same value on every later call, also after later keys
   grow its table; no two ranks share a context.  Each context names
   its rank as tenant, its vCPU (KVM) or global core (otherwise) and,
   under Docker, a cgroup. *)
let test_context_per_rank_and_key () =
  let spec = Option.get (Syscalls.by_name "getpid") in
  let keys = [ 0; 3; 17; 3; 200; 17; 0 ] in
  List.iter
    (fun kind ->
      let name = Env.kind_name kind in
      let engine = Engine.create () in
      let env = Env.deploy ~engine ~kernel_config:quiet kind (Partition.table1 8) in
      let ranks = Env.rank_count env in
      let first = Array.make_matrix ranks 201 None in
      Engine.spawn engine (fun () ->
          List.iter
            (fun key ->
              for rank = 0 to ranks - 1 do
                Env.exec_syscall env ~rank spec { Arg.default with Arg.obj = key };
                let c = Env.context env ~rank ~key in
                match first.(rank).(key) with
                | None -> first.(rank).(key) <- Some c
                | Some c0 ->
                    if c != c0 then Alcotest.failf "%s rank %d key %d: rebuilt" name rank key
              done)
            keys);
      Engine.run engine;
      let all = ref [] in
      for rank = 0 to ranks - 1 do
        List.iter
          (fun key ->
            let c = Env.context env ~rank ~key in
            Alcotest.(check bool) (name ^ ": kept") true
              (match first.(rank).(key) with Some c0 -> c == c0 | None -> false);
            Alcotest.(check (pair int int)) (name ^ ": tenant and key") (rank, key)
              (c.Instance.tenant, c.Instance.key);
            Alcotest.(check int) (name ^ ": core")
              (match kind with Env.Kvm _ -> rank mod 8 | _ -> rank)
              c.Instance.core;
            Alcotest.(check bool) (name ^ ": cgroup")
              (match kind with Env.Docker -> true | _ -> false)
              (c.Instance.cgroup <> None);
            if not (List.memq c !all) then all := c :: !all)
          [ 0; 3; 17; 200 ]
      done;
      Alcotest.(check int) (name ^ ": one context per rank and key") (ranks * 4)
        (List.length !all))
    [ Env.Native; Env.Multikernel; kvm; Env.Docker ]

let suite =
  [
    Alcotest.test_case "table1 partitions" `Quick test_partition_table1;
    Alcotest.test_case "uneven partition" `Quick test_partition_uneven;
    Alcotest.test_case "machines" `Quick test_machines;
    Alcotest.test_case "deploy native" `Quick test_deploy_native;
    Alcotest.test_case "deploy kvm" `Quick test_deploy_kvm_instances;
    Alcotest.test_case "deploy docker" `Quick test_deploy_docker_shares_kernel;
    Alcotest.test_case "surface area ordering" `Quick test_surface_area_ordering;
    Alcotest.test_case "exec syscall latency" `Quick test_exec_syscall_latency;
    Alcotest.test_case "kvm overhead ordering" `Quick
      test_exec_latency_ordering_native_vs_kvm;
    Alcotest.test_case "rank out of range" `Quick test_rank_out_of_range;
    Alcotest.test_case "partition too large" `Quick test_partition_exceeding_machine;
    Alcotest.test_case "barrier cost by kind" `Quick test_barrier_cost_kind_dependent;
    Alcotest.test_case "busy starts idle" `Quick test_busy_of_rank_starts_idle;
    Alcotest.test_case "one context per rank and key" `Quick
      test_context_per_rank_and_key;
  ]
