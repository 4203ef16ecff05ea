module Engine = Ksurf_sim.Engine
module Instance = Ksurf_kernel.Instance
module Spec = Ksurf_syscalls.Spec
module Arg = Ksurf_syscalls.Arg
module Vm = Ksurf_virt.Vm
module Container = Ksurf_container.Container

type kind = Native | Multikernel | Kvm of Ksurf_virt.Virt_config.t | Docker

let kind_name = function
  | Native -> "native"
  | Multikernel -> "multikernel"
  | Kvm _ -> "kvm"
  | Docker -> "docker"

type target =
  | On_host of Instance.t  (** native: straight to the host kernel *)
  | On_vm of Vm.t  (** guest kernel *)
  | On_ctr of Container.t  (** shared host kernel via namespaces *)

(* [ctxs.(k)] is the rank's op context for key [k], built the first
   time the rank calls with [k] and reused after that, so a call passes
   a context rather than building one.  [ctxs.(0)] is built at deploy;
   a slot whose context has another key (it holds [ctxs.(0)]) is not
   built yet. *)
type rank = { target : target; mutable ctxs : Instance.ctx array }

type errno = EAGAIN | EINTR

let errno_name = function EAGAIN -> "EAGAIN" | EINTR -> "EINTR"

type syscall_outcome = Completed | Faulted of errno | Denied

(* Each [Faulted] value is a constant, so a faulted call allocates no
   outcome either. *)
let faulted = function EAGAIN -> Faulted EAGAIN | EINTR -> Faulted EINTR

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
  let total = Partition.total_cores partition in
  if total > machine.Machine.cores then
    invalid_arg "Env.deploy: partition exceeds machine cores";
  let boot ~id ~cores ~mem_mb =
    Ksurf_kernel.Kernel.boot ~engine ~config:kernel_config ~id ~cores ~mem_mb ()
  in
  (* Each kernel learns how many ranks it serves as it boots. *)
  let instances = ref [] in
  let serve inst ranks =
    Instance.set_tenants inst ranks;
    instances := inst :: !instances
  in
  let shared_host () =
    let host = boot ~id:0 ~cores:machine.Machine.cores ~mem_mb:machine.Machine.mem_mb in
    serve host total;
    host
  in
  (* [open_unit id u] boots what unit [id] needs and returns the target
     of the unit's ranks. *)
  let open_unit : int -> Partition.unit_spec -> target =
    match kind with
    | Native ->
        let host = shared_host () in
        fun _ _ -> On_host host
    | Docker ->
        let host = shared_host () in
        fun _ _ -> On_ctr (Container.launch ~host ~cgroup:(Instance.register_cgroup host))
    | Multikernel ->
        (* MultiK-style: one (typically specialized) kernel instance per
           partition unit, on bare metal.  Ranks pay native syscall
           costs — no exit/virtio tax — but share kernel state only with
           their own unit, so cross-unit lock convoys vanish with the
           sharing. *)
        fun id u ->
          let cores = u.Partition.cores in
          let inst = boot ~id ~cores ~mem_mb:u.Partition.mem_mb in
          serve inst cores;
          On_host inst
    | Kvm virt ->
        fun id u ->
          let cores = u.Partition.cores in
          let vm =
            Vm.boot ~engine ~kernel_config ~virt ~id
              { Vm.vcpus = cores; mem_mb = u.Partition.mem_mb }
          in
          serve (Vm.guest vm) cores;
          On_vm vm
  in
  (* The key-0 context of the unit's [vcpu]-th rank, pinned to global
     [core]; the rank's index, its tenant id, is [core] too. *)
  let first_context target ~vcpu ~core =
    match target with
    | On_host _ -> { Instance.core; tenant = core; key = 0; cgroup = None }
    | On_vm _ -> { Instance.core = vcpu; tenant = core; key = 0; cgroup = None }
    | On_ctr ctr -> Container.context ctr ~core ~tenant:core ~key:0
  in
  let ranks = ref [] and core = ref 0 in
  List.iteri
    (fun id (u : Partition.unit_spec) ->
      let target = open_unit id u in
      for vcpu = 0 to u.Partition.cores - 1 do
        ranks := { target; ctxs = [| first_context target ~vcpu ~core:!core |] } :: !ranks;
        incr core
      done)
    partition.Partition.units;
  {
    kind;
    engine;
    ranks = Array.of_list (List.rev !ranks);
    instances = List.rev !instances;
    fault = None;
    swaps = 0;
  }

let kind t = t.kind
let engine t = t.engine
let rank_count t = Array.length t.ranks

let rank t i =
  if i < 0 || i >= Array.length t.ranks then
    invalid_arg (Printf.sprintf "Env: rank %d out of range" i);
  t.ranks.(i)

(* A key past the table's end grows it to twice its length, or to the
   key if that is larger.  A negative key, which only a hand-written
   corpus holds, is not kept. *)
let rank_context r key =
  let ctxs = r.ctxs in
  if key < 0 then { ctxs.(0) with Instance.key }
  else begin
    let n = Array.length ctxs in
    if key >= n then begin
      let grown = Array.make (max (key + 1) (2 * n)) ctxs.(0) in
      Array.blit ctxs 0 grown 0 n;
      r.ctxs <- grown
    end;
    let c = r.ctxs.(key) in
    if c.Instance.key = key then c
    else begin
      let c = { c with Instance.key } in
      r.ctxs.(key) <- c;
      c
    end
  end

let context t ~rank:i ~key = rank_context (rank t i) key

let exec_ops t ~rank:i ~key ops =
  let r = rank t i in
  let ctx = rank_context r key in
  match r.target with
  | On_host host -> Instance.exec_syscall host ctx ops
  | On_vm vm -> Vm.exec_syscall vm ctx ops
  | On_ctr ctr -> Container.exec_syscall ctr ctx ops

let instance_of_rank t i =
  match (rank t i).target with
  | On_host host -> host
  | On_vm vm -> Vm.guest vm
  | On_ctr ctr -> Container.host ctr

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
      exec_ops t ~rank:i ~key:arg.Arg.obj [];
      Denied
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
      | None ->
          exec_ops t ~rank:i ~key:arg.Arg.obj (spec.Spec.ops arg);
          Completed
      | Some errno ->
          (* The aborted call still pays the entry path (trap, argument
             copy, early bail-out) — an empty op program wrapped the
             same way as a real one. *)
          exec_ops t ~rank:i ~key:arg.Arg.obj [];
          faulted errno)

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

let busy_of_rank t i = Instance.busy_fraction (instance_of_rank t i)
