(** Deterministic pseudo-random number generation.

    Every stochastic component of ksurf draws from a [Prng.t] stream.
    Streams are based on SplitMix64 and support {e splitting}: deriving an
    independent child stream from a parent and a label.  This gives the
    determinism policy from DESIGN.md §6 — an experiment seeded with [s]
    produces identical results regardless of how many unrelated components
    also consume randomness, because each component owns its own stream. *)

type t
(** A mutable pseudo-random stream. *)

val create : int -> t
(** [create seed] makes a fresh stream from an integer seed. *)

val split : t -> string -> t
(** [split parent label] derives an independent child stream.  The child
    depends only on the parent's {e seed} and [label], not on how much of
    the parent stream has been consumed. *)

val copy : t -> t
(** [copy t] duplicates the stream including its current position. *)

val bits64 : t -> int64
(** Next 64 raw bits. *)

val bits53 : t -> int
(** The top 53 bits of the next draw, in \[0, 2^53).  [uniform] is this
    scaled by 2^-53, exactly: a hot path that needs a unit draw as an
    unboxed local computes [float_of_int (bits53 t) *. 0x1p-53] itself
    and gets [uniform]'s value without its boxed result. *)

val int : t -> int -> int
(** [int t n] is uniform in \[0, n).  Raises [Invalid_argument] if [n <= 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in \[0, x). *)

val uniform : t -> float
(** Uniform in \[0, 1). *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p] (clamped to \[0,1\]). *)

val pick : t -> 'a array -> 'a
(** Uniformly pick an element.  Raises [Invalid_argument] on empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val seed_of : t -> int
(** The seed the stream was created from (stable across consumption). *)
