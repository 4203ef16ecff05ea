(** Per-call static footprint: the complete may-set of kernel
    structures a syscall can touch, computed by abstractly
    interpreting its op program over the full argument lattice
    (size buckets x object stripes x flag values) without running
    the simulator.

    Soundness: static ⊇ dynamic.  Implied acquisitions are included —
    cache-miss fills (dcache, page-cache tree), slab refills and buddy
    allocations (zone), cgroup-charge spills (css) — so every lock the
    {!Ksurf_kernel.Instance} interpreter can take on any execution of
    the program appears in the footprint. *)

type t = {
  name : string;
  number : int;
  categories : Ksurf_kernel.Category.t list;
  locks : Ksurf_kernel.Ops.lock_ref list;  (** may-acquire, sorted by name *)
  rw_reads : Ksurf_kernel.Ops.rw_ref list;
  rw_writes : Ksurf_kernel.Ops.rw_ref list;
  machinery : Ksurf_kernel.Ops.machinery list;
      (** background daemons coupled through the call's categories *)
  ipi : bool;  (** can broadcast TLB-shootdown IPIs *)
  rcu : bool;  (** can wait for a grace period *)
  block_io : bool;  (** can queue on the block device *)
  sleeps : bool;  (** can block voluntarily *)
  arg_points : int;  (** lattice points enumerated *)
}

val class_of_lock_ref : Ksurf_kernel.Ops.lock_ref -> string
(** The lock-class name the simulator's lock instances carry (after
    {!Ksurf_sim.Lock.class_of_name} normalisation):
    [Page_cache_tree] is class ["pct"], [Futex_bucket] is ["futex"],
    everything else matches {!Ksurf_kernel.Ops.lock_ref_name}. *)

val class_of_rw_ref : Ksurf_kernel.Ops.rw_ref -> string

val lattice_points : Ksurf_syscalls.Arg.model -> Ksurf_syscalls.Arg.t list
(** The argument lattice: one representative size per coverage bucket,
    every object stripe, every flag value.  Bounded and cheap. *)

val all : unit -> t list
(** Footprints of the whole stock table, cached after the first call. *)

val find : t list -> string -> t option

val lock_classes : t -> string list
(** All lock classes (mutex and rwlock) in the footprint, sorted —
    the set dynamically acquired lock classes must be a subset of. *)

val pp : Format.formatter -> t -> unit

val csv_header : string list
val csv_rows : t list -> string list list
