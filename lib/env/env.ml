module Engine = Ksurf_sim.Engine
module Instance = Ksurf_kernel.Instance
module Spec = Ksurf_syscalls.Spec
module Arg = Ksurf_syscalls.Arg
module Vm = Ksurf_virt.Vm
module Hypervisor = Ksurf_virt.Hypervisor
module Container = Ksurf_container.Container

type kind = Native | Multikernel | Kvm of Ksurf_virt.Virt_config.t | Docker

let kind_name = function
  | Native -> "native"
  | Multikernel -> "multikernel"
  | Kvm _ -> "kvm"
  | Docker -> "docker"

type target =
  | On_host of Instance.t  (** native: straight to the host kernel *)
  | On_vm of Vm.t * int  (** guest kernel, local vCPU *)
  | On_ctr of Container.t * int  (** shared host kernel via namespaces *)

type rank = { target : target; unit_index : int; global_core : int }

type errno = EAGAIN | EINTR

let errno_name = function EAGAIN -> "EAGAIN" | EINTR -> "EINTR"

type syscall_outcome =
  | Completed of float
  | Faulted of { errno : errno; latency_ns : float }
  | Denied of { latency_ns : float }

type fault_ctl = {
  syscall_errno : rank:int -> Spec.t -> errno option;
  crash_at : rank:int -> float option;
  restart_after : rank:int -> float option;
}

type t = {
  kind : kind;
  engine : Engine.t;
  ranks : rank array;
  instances : Instance.t list;
  mutable fault : fault_ctl option;
  mutable swaps : int;  (** policy hot-swaps performed via {!swap_policy} *)
}

let deploy ~engine ?(machine = Machine.epyc) ?(kernel_config = Ksurf_kernel.Config.default)
    kind partition =
  let units = partition.Partition.units in
  if Partition.total_cores partition > machine.Machine.cores then
    invalid_arg "Env.deploy: partition exceeds machine cores";
  match kind with
  | Native ->
      let host =
        Ksurf_kernel.Kernel.boot ~engine ~config:kernel_config ~id:0
          ~cores:machine.Machine.cores ~mem_mb:machine.Machine.mem_mb ()
      in
      let ranks = ref [] in
      let core = ref 0 in
      List.iteri
        (fun unit_index (u : Partition.unit_spec) ->
          for _ = 1 to u.Partition.cores do
            ranks :=
              { target = On_host host; unit_index; global_core = !core } :: !ranks;
            incr core
          done)
        units;
      let ranks = Array.of_list (List.rev !ranks) in
      Instance.set_tenants host (Array.length ranks);
      { kind; engine; ranks; instances = [ host ]; fault = None; swaps = 0 }
  | Multikernel ->
      (* MultiK-style: one (typically specialized) kernel instance per
         partition unit, on bare metal.  Ranks pay native syscall costs —
         no exit/virtio tax — but share kernel state only with their own
         unit, so cross-unit lock convoys vanish with the sharing. *)
      let ranks = ref [] in
      let core = ref 0 in
      let kernels =
        List.mapi
          (fun unit_index (u : Partition.unit_spec) ->
            let inst =
              Ksurf_kernel.Kernel.boot ~engine ~config:kernel_config
                ~id:unit_index ~cores:u.Partition.cores
                ~mem_mb:u.Partition.mem_mb ()
            in
            Instance.set_tenants inst u.Partition.cores;
            for _ = 1 to u.Partition.cores do
              ranks :=
                { target = On_host inst; unit_index; global_core = !core }
                :: !ranks;
              incr core
            done;
            inst)
          units
      in
      {
        kind;
        engine;
        ranks = Array.of_list (List.rev !ranks);
        instances = kernels;
        fault = None;
        swaps = 0;
      }
  | Kvm virt ->
      let hv = Hypervisor.create ~engine ~kernel_config ~virt () in
      let ranks = ref [] in
      let core = ref 0 in
      let vms =
        List.mapi
          (fun unit_index (u : Partition.unit_spec) ->
            let vm =
              Hypervisor.boot_vm hv
                { Vm.vcpus = u.Partition.cores; mem_mb = u.Partition.mem_mb }
            in
            Instance.set_tenants (Vm.guest vm) u.Partition.cores;
            for vcpu = 0 to u.Partition.cores - 1 do
              ranks :=
                { target = On_vm (vm, vcpu); unit_index; global_core = !core }
                :: !ranks;
              incr core
            done;
            vm)
          units
      in
      {
        kind;
        engine;
        ranks = Array.of_list (List.rev !ranks);
        instances = List.map Vm.guest vms;
        fault = None;
        swaps = 0;
      }
  | Docker ->
      let host =
        Ksurf_kernel.Kernel.boot ~engine ~config:kernel_config ~id:0
          ~cores:machine.Machine.cores ~mem_mb:machine.Machine.mem_mb ()
      in
      let ranks = ref [] in
      let core = ref 0 in
      List.iteri
        (fun unit_index (u : Partition.unit_spec) ->
          let ctr =
            Container.launch ~host ~id:unit_index
              { Container.cpus = u.Partition.cores;
                mem_limit_mb = u.Partition.mem_mb }
          in
          for _ = 1 to u.Partition.cores do
            ranks :=
              { target = On_ctr (ctr, !core); unit_index; global_core = !core }
              :: !ranks;
            incr core
          done)
        units;
      let ranks = Array.of_list (List.rev !ranks) in
      Instance.set_tenants host (Array.length ranks);
      { kind; engine; ranks; instances = [ host ]; fault = None; swaps = 0 }

let kind t = t.kind
let engine t = t.engine
let rank_count t = Array.length t.ranks

let rank t i =
  if i < 0 || i >= Array.length t.ranks then
    invalid_arg (Printf.sprintf "Env: rank %d out of range" i);
  t.ranks.(i)

let unit_of_rank t i = (rank t i).unit_index

let exec_ops t ~rank:i ~key ops =
  let r = rank t i in
  let t0 = Engine.now t.engine in
  (match r.target with
  | On_host host ->
      let cfg = Instance.config host in
      let ctx =
        { Instance.core = r.global_core; tenant = i; key; cgroup = None }
      in
      Instance.burn host cfg.Ksurf_kernel.Config.syscall_entry_cost;
      Instance.exec_program host ctx ops
  | On_vm (vm, vcpu) -> Vm.exec_syscall vm ~core:vcpu ~tenant:i ~key ops
  | On_ctr (ctr, core) -> Container.exec_syscall ctr ~core ~tenant:i ~key ops);
  Engine.now t.engine -. t0

let instance_of_rank t i =
  match (rank t i).target with
  | On_host host -> host
  | On_vm (vm, _) -> Vm.guest vm
  | On_ctr (ctr, _) -> Container.host ctr

(* Specialization policy (kspec): consult the calling rank's seccomp-style
   allowlist, if one is installed on the instance behind it.  Every
   rejection is counted and probe-visible; only Enforce mode actually
   stops the call. *)
let policy_check t ~rank:i (spec : Ksurf_syscalls.Spec.t) =
  match Instance.syscall_policy (instance_of_rank t i) ~tenant:i with
  | None -> `Allowed
  | Some p ->
      if p.Instance.allows spec.Spec.name then `Allowed
      else begin
        incr p.Instance.denials;
        let enforced = p.Instance.policy_mode = Instance.Enforce in
        if Engine.observed t.engine then
          Engine.emit t.engine
            (Engine.Denied
               {
                 now = Engine.now t.engine;
                 pid = Engine.current_pid t.engine;
                 syscall = spec.Spec.name;
                 enforced;
               });
        if enforced then `Denied else `Allowed
      end

let exec_syscall t ~rank spec (arg : Arg.t) =
  match policy_check t ~rank spec with
  | `Allowed -> exec_ops t ~rank ~key:arg.Arg.obj (spec.Spec.ops arg)
  | `Denied ->
      (* ENOSYS: the call pays the entry path (trap, filter evaluation,
         early bail-out) and nothing else. *)
      exec_ops t ~rank ~key:arg.Arg.obj []

let set_fault_ctl t ctl = t.fault <- ctl

let crash_time_of_rank t ~rank =
  match t.fault with None -> None | Some ctl -> ctl.crash_at ~rank

let restart_delay_of_rank t ~rank =
  match t.fault with None -> None | Some ctl -> ctl.restart_after ~rank

let try_syscall t ~rank:i spec (arg : Arg.t) =
  match policy_check t ~rank:i spec with
  | `Denied ->
      (* The policy filter runs before the fault model: a call seccomp
         rejects never reaches the paths kfault perturbs. *)
      let latency_ns = exec_ops t ~rank:i ~key:arg.Arg.obj [] in
      Denied { latency_ns }
  | `Allowed -> (
      (* The errno draw, when a fault plan is installed, precedes the
         call; without one the call runs directly, so the common path
         builds no closure. *)
      let errno =
        match t.fault with
        | None -> None
        | Some ctl -> ctl.syscall_errno ~rank:i spec
      in
      match errno with
      | None -> Completed (exec_ops t ~rank:i ~key:arg.Arg.obj (spec.Spec.ops arg))
      | Some errno ->
          (* The aborted call still pays the entry path (trap, argument
             copy, early bail-out) — an empty op program wrapped the
             same way as a real one. *)
          let latency_ns = exec_ops t ~rank:i ~key:arg.Arg.obj [] in
          Faulted { errno; latency_ns })

let instances t = t.instances

(* Spec-swap hook (kadapt): replace rank [i]'s syscall policy atomically
   with respect to virtual time.  The outgoing policy's denial count is
   carried into the incoming one, so [Specializer.denials] stays
   monotone across swaps; each swap is probe-visible as a
   [Rank_transition] between policy states so the trace tooling sees
   the control loop like any other kernel work. *)
let policy_state = function
  | None -> "unfiltered"
  | Some (p : Instance.syscall_policy) -> (
      match p.Instance.policy_mode with
      | Instance.Audit -> "audit"
      | Instance.Enforce -> "enforce")

let swap_policy t ~rank:i policy =
  let inst = instance_of_rank t i in
  let old_policy = Instance.syscall_policy inst ~tenant:i in
  (match (old_policy, policy) with
  | Some old_p, Some new_p ->
      new_p.Instance.denials := !(old_p.Instance.denials)
  | _ -> ());
  Instance.set_syscall_policy inst ~tenant:i policy;
  t.swaps <- t.swaps + 1;
  if Engine.observed t.engine then
    Engine.emit t.engine
      (Engine.Rank_transition
         {
           now = Engine.now t.engine;
           pid = Engine.current_pid t.engine;
           rank = i;
           from_state = policy_state old_policy;
           to_state = policy_state policy;
           incident = t.swaps;
         })

let policy_swaps t = t.swaps

let barrier_cost_per_party t =
  match t.kind with
  | Native -> 1_500.0
  | Multikernel -> 1_550.0 (* cross-kernel shared-memory doorbell *)
  | Docker -> 1_800.0 (* veth/bridge hop *)
  | Kvm virt -> 1_500.0 +. virt.Ksurf_virt.Virt_config.virtio_net_per_msg

(* Functional surface area: the structural sharing term scaled by the
   fraction of the coverage universe the rank's specialization policy
   leaves reachable.  An unspecialized rank sees the full structural
   area (reachable = 1), and so does an Audit-mode policy — an
   allowlist that only counts would-be denials stops nothing, so it
   reduces nothing. *)
let surface_area_of_rank t i =
  let inst = instance_of_rank t i in
  let structural = Instance.surface_area inst in
  match Instance.syscall_policy inst ~tenant:i with
  | Some p when p.Instance.policy_mode = Instance.Enforce ->
      structural *. p.Instance.reachable
  | _ -> structural

let busy_of_rank t i =
  match (rank t i).target with
  | On_host host -> Instance.busy_fraction host
  | On_vm (vm, _) -> Instance.busy_fraction (Vm.guest vm)
  | On_ctr (ctr, _) -> Instance.busy_fraction (Container.host ctr)
