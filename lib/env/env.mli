(** Deployments: the same workload over native, virtualised, or
    containerised system software (the Environment box of Figure 1).

    A deployment places one {e rank} (worker process) on every core of
    the partition and routes each rank's system calls to the kernel
    instance that serves it: the single host kernel (native, Docker) or
    the rank's guest kernel (KVM).  The workload — call sequence,
    resource demand, parallelism — is identical across kinds; only the
    kernel surface area behind each rank changes. *)

type kind =
  | Native
  | Multikernel
      (** MultiK-style deployment: one kernel instance per partition
          unit, booted on bare metal with the deployment's
          [kernel_config] (typically pruned by
          [Ksurf_spec.Specializer.kernel_config]).  Ranks pay native
          syscall costs — no virtualization tax — but share kernel
          state only within their own unit. *)
  | Kvm of Ksurf_virt.Virt_config.t
  | Docker

val kind_name : kind -> string

type t

val deploy :
  engine:Ksurf_sim.Engine.t ->
  ?machine:Machine.t ->
  ?kernel_config:Ksurf_kernel.Config.t ->
  kind ->
  Partition.t ->
  t
(** Boot the environment: host kernel (+ per-VM guests or per-container
    cgroups), pinned cores, tenant registration.  [machine] defaults to
    {!Machine.epyc}. *)

val kind : t -> kind
val engine : t -> Ksurf_sim.Engine.t
val rank_count : t -> int
(** One rank per partition core. *)

val unit_of_rank : t -> int -> int
(** Which partition unit (VM/container index) a rank is pinned into. *)

val exec_syscall :
  t -> rank:int -> Ksurf_syscalls.Spec.t -> Ksurf_syscalls.Arg.t -> float
(** Execute one call from the given rank and return its latency in ns.
    Must run inside a simulation process.  Consults the rank's
    specialization policy first (see {!Ksurf_kernel.Instance.syscall_policy}):
    an [Enforce]-mode rejection pays only the entry path; use
    {!try_syscall} to distinguish denial from completion. *)

(** {2 Fault injection}

    kfault ([lib/fault]) installs a {!fault_ctl}; harnesses that opt in
    route calls through {!try_syscall} and consult the crash schedule.
    With no control installed (the default) every path below reduces to
    the stock behaviour. *)

type errno = EAGAIN | EINTR
(** The transient failures the fault model injects — both mean "retry". *)

val errno_name : errno -> string

type syscall_outcome =
  | Completed of float  (** latency in ns, as {!exec_syscall} *)
  | Faulted of { errno : errno; latency_ns : float }
      (** the call aborted early; [latency_ns] covers the entry path *)
  | Denied of { latency_ns : float }
      (** an [Enforce]-mode specialization policy rejected the call
          (ENOSYS); [latency_ns] covers the entry path.  Not a transient
          failure — retrying cannot succeed. *)

type fault_ctl = {
  syscall_errno : rank:int -> Ksurf_syscalls.Spec.t -> errno option;
      (** consulted before each {!try_syscall}; [Some e] aborts the call *)
  crash_at : rank:int -> float option;
      (** virtual time at which the rank's process dies, if scheduled *)
  restart_after : rank:int -> float option;
      (** downtime before the rank restarts; [None] = crash is final *)
}

val set_fault_ctl : t -> fault_ctl option -> unit

val crash_time_of_rank : t -> rank:int -> float option
val restart_delay_of_rank : t -> rank:int -> float option

val try_syscall :
  t ->
  rank:int ->
  Ksurf_syscalls.Spec.t ->
  Ksurf_syscalls.Arg.t ->
  syscall_outcome
(** Like {!exec_syscall} but reports denials and consults the fault
    control.  The specialization policy filter runs first (a call
    seccomp rejects never reaches the faultable paths); a faulted or
    denied call burns only the syscall entry path.  Callers own the
    retry policy — and must not retry [Denied]. *)

val instances : t -> Ksurf_kernel.Instance.t list
(** All kernel instances serving this deployment (1 for native/Docker,
    one per VM for KVM), for diagnostics. *)

val instance_of_rank : t -> int -> Ksurf_kernel.Instance.t
(** The kernel instance serving a rank.  The rank index doubles as the
    tenant id on that instance — the key under which kspec installs
    per-tenant syscall policies. *)

val barrier_cost_per_party : t -> float
(** Network cost of one barrier round for this deployment: MPI over
    loopback (native/Docker) vs over virtio/TAP (KVM). *)

val surface_area_of_rank : t -> int -> float
(** Functional surface area of the kernel behind a rank: the structural
    sharing term ({!Ksurf_kernel.Instance.surface_area}) multiplied by
    the fraction of the coverage universe the rank's specialization
    policy leaves reachable — but only when the policy is in [Enforce]
    mode.  No policy, or an Audit-mode policy that merely counts
    would-be denials, leaves the full structural area exposed. *)

(** {2 Policy hot-swap (kadapt)}

    The kadapt controller promotes/demotes specialization policies on a
    live deployment.  {!swap_policy} replaces a rank's policy without a
    redeploy, preserving the cumulative denial count, and emits a
    probe-visible [Rank_transition] between the policy states
    ["unfiltered"], ["audit"] and ["enforce"] (from
    {!policy_state}). *)

val policy_state : Ksurf_kernel.Instance.syscall_policy option -> string
(** ["unfiltered"] for [None], else ["audit"] / ["enforce"] by the
    policy's mode — the state names the invariant sanitizer validates
    kadapt transitions against. *)

val swap_policy :
  t -> rank:int -> Ksurf_kernel.Instance.syscall_policy option -> unit
(** Hot-install (or remove, with [None]) rank [rank]'s syscall policy.
    The outgoing policy's denial count is carried into the incoming
    policy so {!Ksurf_spec} denial accounting stays monotone across
    swaps.  Each call increments {!policy_swaps} and, when the engine
    is observed, emits an [Engine.Rank_transition] whose [incident] is
    the swap ordinal. *)

val policy_swaps : t -> int
(** Total {!swap_policy} calls on this deployment — the accounting side
    of the probe-visible transition stream. *)

val busy_of_rank : t -> int -> float
(** {!Ksurf_kernel.Instance.busy_fraction} of the kernel instance behind
    a rank — how loaded the kernel serving this rank currently is. *)
