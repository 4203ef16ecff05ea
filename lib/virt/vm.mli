(** One KVM-style virtual machine.

    A VM owns a {e guest kernel instance} whose surface area is exactly
    the VM's resources — this is the mechanism by which VM boundaries
    shrink the kernel surface area without changing the workload.  The
    guest kernel runs its own background daemons over its (small)
    resources; syscall execution inside the VM pays the bounded
    virtualisation overheads of {!Virt_config}. *)

type shape = { vcpus : int; mem_mb : int }

type t

val boot :
  engine:Ksurf_sim.Engine.t ->
  ?host_block:Ksurf_sim.Resource.t ->
  ?kernel_config:Ksurf_kernel.Config.t ->
  ?virt:Virt_config.t ->
  id:int ->
  shape ->
  t
(** Boot the VM and its guest kernel (with background daemons).  By
    default the VM gets a private virtio disk (its own image file whose
    traffic is largely absorbed by the host page cache, as with the
    paper's per-VM virtio disks); pass [host_block] to make virtio
    requests queue directly on a shared host device instead. *)

val guest : t -> Ksurf_kernel.Instance.t

val shutdown : t -> unit
(** Halt the guest kernel ({!Ksurf_kernel.Instance.halt}): its
    background daemons exit at their next wakeup, so a decommissioned
    VM stops generating events. *)

val exec_syscall : t -> Ksurf_kernel.Instance.ctx -> Ksurf_kernel.Ops.op list -> unit
(** Run an op program on the guest kernel in the caller's context,
    paying guest entry cost and virtualisation overhead (involuntary
    exits, drawn from the VM's own deterministic stream).  The
    context's [core] is the vCPU index (must be < vcpus). *)
