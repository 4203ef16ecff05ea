(** The kernel-operation DSL.

    A system call's in-kernel behaviour is a sequence of [op]s; the
    {!Instance} interpreter executes them against shared kernel state.
    The vocabulary mirrors the latent variability sources the paper
    enumerates in §3.3: synchronisation constructs, cross-core
    communication, software caches, timers, and background activity. *)

type lock_ref =
  | Runqueue  (** per-core run queue: picked by the calling core *)
  | Tasklist  (** instance-global task list / pid table *)
  | Zone  (** page-allocator zone lock (instance-global) *)
  | Page_cache_tree  (** page-cache radix-tree lock, striped per file set *)
  | Dcache  (** dentry hash / LRU lock (instance-global) *)
  | Inode  (** per-inode lock, striped by object *)
  | Journal  (** filesystem journal (instance-global, long holds) *)
  | Pipe  (** per-pipe lock, striped by object *)
  | Msgq_registry  (** System-V IPC registry (instance-global) *)
  | Futex_bucket  (** futex hash bucket, striped by object *)
  | Cred  (** credentials / capability update lock *)
  | Audit  (** audit-log serialisation (instance-global) *)
  | Cgroup_css  (** cgroup subsystem state / memcg stats *)

type rw_ref =
  | Mmap_sem  (** per-address-space semaphore, striped by tenant *)
  | Sb_umount  (** superblock guard: read on path ops, write on (u)mount *)

val lock_ref_name : lock_ref -> string
val rw_ref_name : rw_ref -> string

val global_lock_refs : lock_ref list
(** Locks with a single instance-wide instance (contention grows with
    the number of tenants sharing the kernel). *)

type op =
  | Cpu of float  (** in-kernel computation, fixed ns *)
  | Lock of lock_ref * Ksurf_util.Dist.t  (** critical section; hold sampled *)
  | With_lock of lock_ref * Ksurf_util.Dist.t * op list
      (** nested critical section: the lock is held (for the sampled
          base hold) {e across} the body ops, so every acquisition in
          the body establishes a lock-order edge under the outer lock —
          the construct lockdep and the static lock-order graph reason
          about.  Paths that nest in the real kernel (rename's
          dcache-then-inode, journalled inode updates opening a
          transaction handle under the inode lock) use this form. *)
  | Read_lock of rw_ref * Ksurf_util.Dist.t
  | Write_lock of rw_ref * Ksurf_util.Dist.t
  | Dcache_lookup  (** dentry cache probe: hit or miss-and-fill *)
  | Page_cache_lookup  (** page cache probe *)
  | Slab_alloc  (** slab allocation: per-cpu fast path or global refill *)
  | Page_alloc of int  (** buddy allocation of 2^order pages: zone lock *)
  | Tlb_shootdown  (** broadcast invalidation to the instance's cores *)
  | Rcu_sync  (** wait for a grace period: scales with cores *)
  | Block_io of { bytes : int; write : bool }  (** block-device request *)
  | Cgroup_charge  (** memcg accounting on the charge path *)
  | Sleep of Ksurf_util.Dist.t  (** voluntary block (timeout, wait) *)

val pp_op : Format.formatter -> op -> unit

val total_fixed_cost : op list -> float
(** Sum of the deterministic [Cpu] components — a lower bound on the
    latency of the op program, used by tests and the coverage model. *)

(** Kernel machinery that exists to serve specific syscall categories.
    The specializer ([lib/spec]) switches off every machinery that no
    retained category touches, via {!Config.without_machinery}. *)
type machinery =
  | Load_balancer  (** periodic runqueue balancing (scheduler) *)
  | Timer_tick  (** the periodic scheduler tick (NO_HZ_FULL when pruned) *)
  | Kswapd  (** background page reclaim *)
  | Tlb_shootdown_m  (** cross-core TLB invalidation broadcasts *)
  | Journal_daemon  (** periodic filesystem journal commits *)
  | Cgroup_accounting_m  (** memcg/io charge path and stat flusher *)

val machinery_name : machinery -> string
val all_machinery : machinery list

val machinery_of_category : Category.t -> machinery list
(** The machinery a category depends on: a kernel retaining only some
    categories may drop everything outside the union of their lists.
    Process needs the tick and the balancer; Memory needs reclaim,
    shootdowns and the memcg controller; File_io/Fs_mgmt dirty the
    journal (File_io also charges the io controller); Ipc and Perm need
    no prunable machinery. *)
