(** Binary min-heap of timestamped events.

    Ordering is (time, sequence number): two events at the same virtual
    time fire in insertion order, which makes whole-simulation execution
    deterministic (DESIGN.md §6).

    The layout is allocation-free on the hot path.  The keys sit in heap
    order in parallel arrays of times (an unboxed float array), sequence
    numbers and slots; each entry's pid and payload sit in a slot table
    where {!push} stored them.  A sift therefore moves integers and
    floats only, never a payload, and a [push]/[drop] pair allocates
    nothing.  The drop that empties the heap releases its payload; a
    payload dropped while others stay queued stays in its free slot
    until a push takes the slot.  Events are consumed through the
    [top_*]/[drop] accessors.  Every accessor is
    allocation-free except {!top_time}, whose result crosses the module
    boundary boxed; {!top_time_into} reads the same time into a float
    array instead, and is how the engine's run loop reads it. *)

type 'a t

val create : unit -> 'a t
val size : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:float -> seq:int -> pid:int -> 'a -> unit
(** [pid] rides alongside the payload so the engine can attribute the
    event to a logical process without wrapping the payload in a
    closure; callers that don't track processes pass [~pid:0]. *)

val push_cell : 'a t -> float array -> seq:int -> pid:int -> 'a -> unit
(** [push_cell t cell] is [push t ~time:cell.(0)]: a time computed into
    a float array reaches the heap without being boxed. *)

val top_time : 'a t -> float
(** Time of the earliest event.  Undefined on an empty heap — check
    {!is_empty} first. *)

val top_time_into : 'a t -> float array -> unit
(** [top_time_into t cell] stores {!top_time} in [cell.(0)] without
    boxing it.  Undefined on an empty heap. *)

val top_pid : 'a t -> int
(** Pid of the earliest event.  Undefined on an empty heap. *)

val top : 'a t -> 'a
(** Payload of the earliest event, without removing it.  Undefined on
    an empty heap. *)

val drop : 'a t -> unit
(** Remove the earliest event.  Must not be called on an empty heap. *)

val top_before : 'a t -> 'b t -> bool
(** [top_before a b] is [true] iff [a] is non-empty and its earliest
    event precedes [b]'s by (time, seq), or [b] is empty.  Lets a caller
    that keeps two heaps on one sequence counter merge them without
    boxing either top time. *)

val fires_after : 'a t -> float array -> bool
(** [fires_after t cell] is [true] iff [t] is empty or its earliest
    event's time is later than [cell.(0)], so an event at that time
    would fire before every event of [t] whatever its seq.  Reads the
    cell in place, so asking boxes nothing. *)
