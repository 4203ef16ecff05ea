(** A first-in, first-out queue of immediate ints: the wait queue every
    sync primitive keeps its parked processes' tickets in (see
    {!Engine.ticket}).

    An int crosses every boundary unboxed and a ring of them holds no
    pointers, so a push or a pop allocates nothing once the ring is big
    enough.  The ring is made on the first push, not in {!create}: most
    primitives of a booted kernel are never contended, and a wait queue
    they never use should cost them nothing. *)

type t

val create : unit -> t
(** An empty queue, with no ring yet. *)

val is_empty : t -> bool
val length : t -> int

val push : t -> int -> unit
(** Add at the back, doubling the ring when it is full. *)

val peek : t -> int
(** The front element, left in place.  Raises [Invalid_argument] on an
    empty queue. *)

val pop : t -> int
(** Remove and return the front element.  Raises [Invalid_argument] on
    an empty queue. *)
