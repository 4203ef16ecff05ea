(** Software-cache interference model.

    The kernel's software caches (dentry cache, page cache, slab per-CPU
    magazines) are shared across every tenant of a kernel instance.
    Co-tenants evict each other's entries, so the effective hit rate of a
    cache decays with the number of tenants sharing the instance — one of
    the cross-tenant variability channels the paper attributes to the
    kernel surface area. *)

type t

val create :
  name:string -> base_hit_rate:float -> pressure_per_sharer:float -> t
(** [base_hit_rate] is the single-tenant hit probability;
    each additional sharer subtracts [pressure_per_sharer] (floored at
    0.5 so caches never become useless). *)

val set_sharers : t -> int -> unit
(** Number of tenants actively using the instance (>= 1). *)

val set_extra_pressure : t -> float -> unit
(** Transient additional hit-rate penalty (clamped at 0 below), on top
    of sharer pressure — how a cache-flush fault-injection storm evicts
    entries for a window.  The 0.5 hit-rate floor still applies. *)

val hit_rate : t -> float

val probe : t -> Ksurf_util.Prng.t -> bool
(** One lookup: [true] on hit. *)

val lookups : t -> int
val misses : t -> int
