(** Lockdep-style lock-order validator.

    Locks are grouped into {e classes} — the stripe index and the
    kernel-instance prefix of an instance name are stripped, so
    [k0.inode[3]] and [k2.inode[7]] are both class [inode] — and every
    "A held while acquiring B" observation adds a class edge with the
    acquisition context that first created it.  A cycle in the class
    graph is a potential deadlock even if the observed run got lucky
    with timing.  Instance-level violations (double acquire, release of
    a lock not held, locks still held at drain) are reported directly.

    Feed events with [Engine.add_probe engine (Lockdep.on_event state)];
    acquire events arrive at {e intent} time, so an acquisition that
    deadlocks still contributes its edge. *)

type t

val create : unit -> t

val class_of_instance : string -> string
(** {!Ksurf_sim.Lock.class_of_name}: ["k3.inode[7]"] is class
    ["inode"]. *)

val on_event : t -> Ksurf_sim.Engine.event_info -> unit
(** Probe entry point; ignores non-[Sync] events. *)

val strongly_connected_components :
  nodes:string list -> succs:(string -> string list) -> string list list
(** Tarjan SCC over an arbitrary class graph, in deterministic node
    order.  Shared with the static lock-order graph (lib/staticcheck),
    which must agree with the dynamic validator on what counts as a
    potential-deadlock cycle. *)

val sync_events : t -> int
(** Lock/rwlock/barrier events seen so far. *)

val edge_count : t -> int
(** Distinct class-order edges observed. *)

val finish : ?drained:bool -> t -> Finding.t list
(** All findings: immediate violations in event order, then
    held-at-drain leaks (only when [drained], default [true] — a run
    stopped early by a predicate legitimately leaves locks held), then
    one potential-deadlock finding per cyclic class SCC.  Deterministic
    for a given event stream. *)
