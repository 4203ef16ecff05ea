(** Whole-table static lock-order graph with potential-deadlock
    detection.

    Edges come from walking every syscall's op program over its
    argument lattice with a held-lock stack: {!Ksurf_kernel.Ops.op}
    [With_lock] is the only construct that holds a lock across further
    acquisitions, and every acquisition under it — explicit lock ops
    and the implied ones (cache-miss fills, slab refills, buddy
    allocations, charge spills) — adds a [held -> acquired] class
    edge.  Cycle detection reuses the dynamic validator's Tarjan SCC
    ({!Ksurf_analysis.Lockdep.strongly_connected_components}), so
    static and dynamic agree on what counts as a potential deadlock —
    the static pass just doesn't need a lucky interleaving to see the
    AB/BA pattern. *)

type edge = { src : string; dst : string; witness : string }
(** One lock-order edge between classes, with the first syscall and
    argument point that created it. *)

type t = { nodes : string list; edges : edge list }

val of_specs : Ksurf_syscalls.Spec.t list -> t
val of_table : unit -> t

val cycles : t -> Ksurf_analysis.Finding.t list
(** One [static-lock-order-cycle] error per cyclic SCC (non-trivial
    SCC, or a self-edge from same-class nesting), with every
    in-cycle edge witness.  Empty list = the table is certified
    cycle-free. *)

val pp : Format.formatter -> t -> unit

val csv_header : string list
val csv_rows : t -> string list list
