(** Docker-style OS containers.

    Containers are namespaces plus control groups over the {e shared}
    host kernel: the kernel surface area their workload sees is the full
    machine, which is the paper's central contrast with VMs.  Each
    container contributes a cgroup whose accounting traffic (and the
    host-wide stats flusher it feeds) grows with the container count —
    the mechanism behind Table 3's worst-case degradation. *)

type t

val launch : host:Ksurf_kernel.Instance.t -> cgroup:int -> t
(** Create a container on the host kernel in [cgroup], a cgroup the
    caller made on [host] ({!Ksurf_kernel.Instance.register_cgroup}, or
    the creation storm of {!Ksurf_kernel.Instance.cgroup_create}). *)

val cgroup : t -> int
val host : t -> Ksurf_kernel.Instance.t

val namespace_cost : float
(** Per-syscall namespace translation cost (ns): pid/mnt/net indirection
    on entry. *)

val context : t -> core:int -> tenant:int -> key:int -> Ksurf_kernel.Instance.ctx
(** The op context of a call from inside the container: the container's
    cgroup is set, so charge ops are live.  [core] is the pinned
    physical CPU. *)

val exec_syscall : t -> Ksurf_kernel.Instance.ctx -> Ksurf_kernel.Ops.op list -> unit
(** Run an op program on the shared host kernel from inside the
    container, in a context {!context} built: entry cost + namespace
    cost, then the cgroup charge and the program. *)
