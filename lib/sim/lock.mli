(** FIFO mutual-exclusion lock with contention accounting.

    Models both spinlocks and sleeping locks from the simulation's point
    of view: the caller's virtual time is consumed by queueing delay.
    Ownership transfers directly to the next waiter on release, so the
    lock is fair and the wait time of each acquirer is exactly the
    remaining hold time of everyone ahead of it — the emergent source of
    software-contention variability in the kernel model. *)

type t

val create : engine:Engine.t -> name:string -> t

val acquire : t -> unit
(** Block (in virtual time) until the lock is owned by the caller. *)

val release : t -> unit
(** Raises [Invalid_argument] (naming the lock) if it is not held. *)

val with_hold : t -> float -> unit
(** [with_hold l d] acquires, holds for [d] nanoseconds, releases.  The
    canonical "critical section of length d" operation. *)

val held : t -> bool
val name : t -> string

(** Accounting, reset-free since engine creation: *)

val acquisitions : t -> int
val contended_acquisitions : t -> int
val wait_stats : t -> Ksurf_util.Welford.t
(** Wait time per acquisition (0 for uncontended). *)

val hold_stats : t -> Ksurf_util.Welford.t
(** Hold durations as observed between acquire and release. *)

val class_of_name : string -> string
(** The lock class of an instance name: ["k3.inode[7]"] is class
    ["inode"].  The kernel-instance prefix ([k<digits>.]) and the stripe
    suffix ([[<i>]]) are stripped, so striping and multi-instance
    deployments do not multiply classes.  Shared by lockdep and the
    fault injector's lock-preemption matching. *)
