(** Engine invariant sanitizer.

    Re-checks, over the probe event stream, what the engine and the
    synchronization primitives promise structurally: events never
    scheduled in the past or at a non-finite time, execution time never
    regressing, suspensions woken at most once, barrier generations
    monotone and gap-free, and per-lock contention counters consistent.
    The engine hard-raises on some of these itself; the sanitizer exists
    so a future engine change that silently drops a guard is still
    caught. *)

type t

val create : unit -> t

val on_event : t -> Ksurf_sim.Engine.event_info -> unit
(** Probe entry point. *)

val events : t -> int
(** Events seen so far. *)

val finish : ?drained:bool -> t -> Finding.t list
(** Findings in event order, then counter inconsistencies, then (only
    when [drained], default [true]) suspensions that were never woken —
    a run stopped early by a predicate legitimately leaves processes
    parked. *)
