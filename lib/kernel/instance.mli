(** A kernel instance: one booted OS kernel managing a surface area.

    The {e kernel surface area} is the pair (cores, memory) the instance
    manages (§3.3 of the paper).  A native deployment has one instance
    covering the whole machine; each KVM guest gets its own small
    instance; containers all share the host instance.

    The instance owns the shared software state — global and striped
    locks, reader-writer semaphores, software caches, the block-device
    queue — and interprets {!Ops.op} programs against it.  Contention and
    its variability {e emerge} from concurrent interpretation, rather
    than being injected. *)

type t

type ctx = {
  core : int;  (** virtual core (0-based) within the instance *)
  tenant : int;  (** process/tenant id: address-space identity *)
  key : int;  (** object identity for striped locks (file, pipe, futex) *)
  cgroup : int option;  (** active cgroup (containers only) *)
}

val boot :
  engine:Ksurf_sim.Engine.t ->
  config:Config.t ->
  id:int ->
  cores:int ->
  mem_mb:int ->
  ?block_dev:Ksurf_sim.Resource.t ->
  unit ->
  t
(** Boot an instance.  [block_dev] lets several instances share one
    physical device (the host SSD under virtualisation); by default the
    instance gets a private device.  Background daemons are {e not}
    started here — call {!Background.start} (via {!Kernel.boot}) so that
    tests can run a daemon-free instance. *)

val engine : t -> Ksurf_sim.Engine.t
val config : t -> Config.t
val id : t -> int
val cores : t -> int
val mem_mb : t -> int

val surface_area : t -> float
(** Normalised scalar surface area: (cores/64 + mem_mb/32768) / 2 — the
    simplification of the multi-dimensional parameter used for
    reporting. *)

val set_tenants : t -> int -> unit
(** Declare how many tenants actively share the instance; drives
    software-cache pressure.  At least 1. *)

val tenants : t -> int

val register_cgroup : t -> int
(** Allocate a cgroup id (containers).  Increases the accounting load of
    the stats flusher. *)

val cgroup_count : t -> int

val halt : t -> unit
(** Decommission the instance: background daemons observe {!halted} and
    exit at their next wakeup instead of looping forever, so the
    instance stops generating events (a fleet retiring a departed
    tenant's private kernel relies on this).  Syscall execution is not
    blocked — in-flight requests drain normally. *)

val halted : t -> bool

val cgroup_create : t -> ctx -> int
(** Allocate a cgroup id {e and} execute the creation storm: css
    allocation and online under the css lock, first-task attach under
    the task list, initial charge.  Must run inside a simulation
    process; the storm is probe-visible like any syscall program.
    Returns the new id. *)

val cgroup_destroy : t -> ctx -> cgroup:int -> unit
(** Execute the teardown storm for [cgroup] — residual stat flush under
    the css lock (cost grows with the live cgroup population), detach
    under the task list, RCU grace period — then unregister it.  Must
    run inside a simulation process. *)

val exec_op : t -> ctx -> Ops.op -> unit
(** Interpret one op in virtual time.  Must run inside a simulation
    process of the instance's engine. *)

val exec_program : t -> ctx -> Ops.op list -> unit
(** Interpret a whole op program (no entry cost — wrappers add it). *)

val lock : t -> ctx -> Ops.lock_ref -> Ksurf_sim.Lock.t
(** Resolve a lock reference for a context (striping applied) — exposed
    for {!Background} and for white-box tests.  A stripe is created, as
    [k<id>.<group>[<i>]], the first time it is resolved; every later
    call returns that same lock and allocates nothing. *)

val rwlock : t -> ctx -> Ops.rw_ref -> Ksurf_sim.Rwlock.t
val block_dev : t -> Ksurf_sim.Resource.t
val rng : t -> Ksurf_util.Prng.t

type lock_report = {
  lock_name : string;
  acquisitions : int;
  contended : int;
  mean_wait_ns : float;
  max_wait_ns : float;  (** 0 when never contended *)
}

val lock_contention_report : t -> lock_report list
(** Per-lock contention accounting (striped locks aggregated over the
    stripes created so far), for the lock-attribution experiment and
    white-box tests. *)

type activity_class =
  | Fs_activity  (** journalled metadata, dentry traffic *)
  | Mm_activity  (** allocations, unmapping, TLB invalidation *)
  | Sched_activity  (** runqueue and task-list operations *)
  | Charge_activity  (** cgroup accounting *)

val busy_fraction : t -> float
(** Smoothed per-core kernel-op rate, 0..1.  Housekeeping intensity and
    IPI-ack tails follow this, so an idle instance is quiet — the reason
    an isolated container environment performs well even though its
    kernel surface area is the whole machine. *)

val take_activity : t -> activity_class -> int
(** Read and reset a class's op counter — consumed by the matching
    background daemon to size its next batch of work. *)

val burn : t -> float -> unit
(** Consume [d] ns of in-kernel CPU, including probabilistic timer-tick
    interference when enabled.  Exposed for wrappers that add their own
    costs (virtualisation entry/exit, namespace translation). *)

(** {2 Fault-injection controls}

    Written by kfault ([lib/fault]); every accessor defaults to the
    identity so an un-armed instance behaves exactly as before. *)

val set_burn_mult : t -> float -> unit
(** Dilate all in-kernel CPU time by a factor — a slow-memory-channel
    window.  Must be positive; 1.0 restores stock behaviour. *)

val burn_mult : t -> float

val set_daemon_hold_mult : t -> (string -> float) option -> unit
(** Install a per-daemon lock-hold multiplier, keyed by daemon name
    ("jbd2", "kswapd", "load_balancer", "cgroup_flusher").  {!Background}
    consults it on every housekeeping pass; [None] restores 1.0. *)

val daemon_hold_mult : t -> daemon:string -> float
(** The current multiplier for [daemon] (1.0 when no hook installed). *)

val set_cache_pressure : t -> float -> unit
(** Extra hit-rate penalty on both software caches (dcache and page
    cache) — a cache-flush storm window.  0.0 restores stock. *)

(** {2 Specialization controls}

    Written by kspec ([lib/spec]): per-tenant syscall policies on a
    shared instance — the seccomp-style allowlist a specialized kernel
    installs for each process.  [Ksurf_env.Env] consults the calling
    rank's policy on every system call; with no policy installed (the
    default) behaviour is exactly as before. *)

type policy_mode =
  | Audit  (** log-only: denied calls still execute *)
  | Enforce  (** denied calls fail ENOSYS after the entry path *)

type syscall_policy = {
  allows : string -> bool;  (** syscall name -> permitted? *)
  policy_mode : policy_mode;
  reachable : float;
      (** fraction of the coverage universe the policy leaves reachable,
          in (0, 1] — the functional term of the surface-area metric *)
  denials : int ref;  (** incremented on every rejected call *)
}

val set_syscall_policy : t -> tenant:int -> syscall_policy option -> unit
(** Install ([Some]) or remove ([None]) a tenant's policy.  Raises
    [Invalid_argument] if [reachable] is outside (0, 1]. *)

val syscall_policy : t -> tenant:int -> syscall_policy option
