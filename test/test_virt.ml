open Ksurf

let test_scale_zero_is_free () =
  let v = Virt_config.scale 0.0 Virt_config.default in
  Alcotest.(check (float 1e-9)) "no exit cost" 0.0 v.Virt_config.exit_cost;
  Alcotest.(check (float 1e-9)) "no cpu dilation" 1.0 v.Virt_config.cpu_factor;
  Alcotest.(check (float 1e-9)) "no ipi factor" 1.0 v.Virt_config.ipi_factor;
  Alcotest.(check (float 1e-9)) "no virtio cost" 0.0 v.Virt_config.virtio_request_cost

let test_scale_identity () =
  let v = Virt_config.scale 1.0 Virt_config.default in
  Alcotest.(check (float 1e-9)) "exit cost unchanged"
    Virt_config.default.Virt_config.exit_cost v.Virt_config.exit_cost

let test_scale_negative_rejected () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Virt_config.scale (-1.0) Virt_config.default);
       false
     with Invalid_argument _ -> true)

let test_derive_kernel_config () =
  let base = Kernel_config.default in
  let derived = Virt_config.derive_kernel_config Virt_config.default base in
  Alcotest.(check bool) "ipi costlier" true
    (derived.Kernel_config.ipi_cost > base.Kernel_config.ipi_cost);
  Alcotest.(check bool) "cpu dilated" true
    (derived.Kernel_config.cpu_cost_factor > base.Kernel_config.cpu_cost_factor);
  Alcotest.(check bool) "entry costlier" true
    (derived.Kernel_config.syscall_entry_cost > base.Kernel_config.syscall_entry_cost)

let test_vm_boot_validation () =
  let engine = Engine.create () in
  Alcotest.(check bool) "0 vcpus rejected" true
    (try
       ignore (Vm.boot ~engine ~id:0 { Vm.vcpus = 0; mem_mb = 512 });
       false
     with Invalid_argument _ -> true)

let test_vm_guest_surface () =
  let engine = Engine.create () in
  let vm =
    Vm.boot ~engine ~kernel_config:Kernel_config.quiet ~id:0
      { Vm.vcpus = 4; mem_mb = 2048 }
  in
  Alcotest.(check int) "guest cores" 4 (Instance.cores (Vm.guest vm));
  Alcotest.(check int) "guest memory" 2048 (Instance.mem_mb (Vm.guest vm))

let test_vm_vcpu_range () =
  let engine = Engine.create () in
  let vm =
    Vm.boot ~engine ~kernel_config:Kernel_config.quiet ~id:0
      { Vm.vcpus = 2; mem_mb = 512 }
  in
  Engine.spawn engine (fun () ->
      Vm.exec_syscall vm
        { Instance.core = 5; tenant = 0; key = 0; cgroup = None }
        [ Ops.Cpu 10.0 ]);
  Alcotest.(check bool) "vcpu out of range" true
    (try
       Engine.run engine;
       false
     with Engine.Process_error (_, Invalid_argument _) -> true)

let test_vm_adds_bounded_overhead () =
  (* Over many calls, the VM's mean syscall cost must exceed native but
     by a bounded factor. *)
  let engine = Engine.create ~seed:1 () in
  let native =
    Instance.boot ~engine ~config:Kernel_config.quiet ~id:0 ~cores:2 ~mem_mb:512 ()
  in
  let vm =
    Vm.boot ~engine ~kernel_config:Kernel_config.quiet ~id:0
      { Vm.vcpus = 2; mem_mb = 512 }
  in
  let ops = [ Ops.Cpu 500.0 ] in
  let measure f =
    let total = ref 0.0 in
    Engine.spawn engine (fun () ->
        for _ = 1 to 500 do
          let t0 = Engine.now engine in
          f ();
          total := !total +. (Engine.now engine -. t0)
        done);
    Engine.run engine;
    !total /. 500.0
  in
  let ctx = { Instance.core = 0; tenant = 0; key = 0; cgroup = None } in
  let native_mean =
    measure (fun () ->
        Instance.burn native
          (Instance.config native).Kernel_config.syscall_entry_cost;
        Instance.exec_program native ctx ops)
  in
  let vm_mean =
    measure (fun () -> Vm.exec_syscall vm ctx ops)
  in
  Alcotest.(check bool) "vm slower than native" true (vm_mean > native_mean);
  Alcotest.(check bool) "but bounded (< 10x)" true (vm_mean < 10.0 *. native_mean)

let test_shared_host_disk_couples_vms () =
  let engine = Engine.create ~seed:9 () in
  let config =
    { Kernel_config.quiet with Kernel_config.block_queue_depth = 1;
      block_latency = Dist.constant 10_000.0;
      block_bandwidth_ns_per_byte = 0.0 }
  in
  (* Both guests queue on one host device, as a fleet's guests do on
     their host's. *)
  let host_block = Resource.create ~engine ~name:"host.blkdev" ~capacity:1 in
  let vms =
    List.init 2 (fun id ->
        Vm.boot ~engine ~host_block ~kernel_config:config ~id
          { Vm.vcpus = 1; mem_mb = 512 })
  in
  let io = [ Ops.Block_io { bytes = 0; write = false } ] in
  let last = ref 0.0 in
  List.iter
    (fun vm ->
      Engine.spawn engine (fun () ->
          Vm.exec_syscall vm { Instance.core = 0; tenant = 0; key = 0; cgroup = None } io;
          last := Float.max !last (Engine.now engine)))
    vms;
  Engine.run engine;
  (* With a shared depth-1 device, the second VM's request queues. *)
  Alcotest.(check bool) "requests serialised across VMs" true (!last >= 2.0 *. 10_000.0)

(* --- containers -------------------------------------------------------- *)

(* A container in a fresh cgroup, as [Env.deploy] launches them. *)
let launch ~host = Container.launch ~host ~cgroup:(Instance.register_cgroup host)

let test_container_cgroups_distinct () =
  let engine = Engine.create () in
  let host =
    Instance.boot ~engine ~config:Kernel_config.quiet ~id:0 ~cores:4 ~mem_mb:2048 ()
  in
  let a = launch ~host in
  let b = launch ~host in
  Alcotest.(check bool) "distinct cgroups" true
    (Container.cgroup a <> Container.cgroup b);
  Alcotest.(check int) "host sees two" 2 (Instance.cgroup_count host)

let test_container_shares_host_kernel () =
  let engine = Engine.create () in
  let host =
    Instance.boot ~engine ~config:Kernel_config.quiet ~id:0 ~cores:4 ~mem_mb:2048 ()
  in
  let c = launch ~host in
  Alcotest.(check bool) "same instance" true (Container.host c == host)

let test_container_namespace_cost () =
  let engine = Engine.create () in
  let host =
    Instance.boot ~engine ~config:Kernel_config.quiet ~id:0 ~cores:2 ~mem_mb:1024 ()
  in
  let c = launch ~host in
  let elapsed = ref nan in
  Engine.spawn engine (fun () ->
      let t0 = Engine.now engine in
      Container.exec_syscall c (Container.context c ~core:0 ~tenant:0 ~key:0)
        [ Ops.Cpu 100.0 ];
      elapsed := Engine.now engine -. t0);
  Engine.run engine;
  let entry = Kernel_config.quiet.Kernel_config.syscall_entry_cost in
  (* entry + namespace + charge fast path + the op itself *)
  Alcotest.(check bool) "includes namespace overhead" true
    (!elapsed >= entry +. Container.namespace_cost +. 100.0 -. 1e-9)

let suite =
  [
    Alcotest.test_case "scale zero" `Quick test_scale_zero_is_free;
    Alcotest.test_case "scale identity" `Quick test_scale_identity;
    Alcotest.test_case "scale negative" `Quick test_scale_negative_rejected;
    Alcotest.test_case "derive kernel config" `Quick test_derive_kernel_config;
    Alcotest.test_case "vm boot validation" `Quick test_vm_boot_validation;
    Alcotest.test_case "guest surface" `Quick test_vm_guest_surface;
    Alcotest.test_case "vcpu range" `Quick test_vm_vcpu_range;
    Alcotest.test_case "bounded overhead" `Quick test_vm_adds_bounded_overhead;
    Alcotest.test_case "shared host disk" `Quick test_shared_host_disk_couples_vms;
    Alcotest.test_case "container cgroups" `Quick test_container_cgroups_distinct;
    Alcotest.test_case "container shares kernel" `Quick
      test_container_shares_host_kernel;
    Alcotest.test_case "namespace cost" `Quick test_container_namespace_cost;
  ]
