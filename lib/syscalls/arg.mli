(** System-call argument model.

    Real Syzkaller explores the full argument space of each call; the
    behaviourally relevant dimensions for latency are the transfer
    {e size}, the {e object} the call operates on (file, pipe, futex —
    drives lock striping), and a {e flags} word that selects different
    kernel paths (e.g. [O_SYNC] vs buffered).  A {!model} declares which
    values a call's generator may draw. *)

type t = { size : int; obj : int; flags : int }

type model = {
  sizes : int array;  (** candidate transfer sizes (bytes); non-empty *)
  max_obj : int;  (** objects are drawn from \[0, max_obj) *)
  max_flags : int;  (** flags are drawn from \[0, max_flags) *)
}

val default : t
(** size 0, obj 0, flags 0. *)

val no_args : model
(** Calls whose latency is argument-independent. *)

val sized : int array -> model
(** Transfer-size-sensitive calls (reads, writes, mmaps). *)

val objected : ?max_flags:int -> int -> model
(** Object-identity-sensitive calls (locks stripe by object). *)

val io : model
(** Common I/O model: sizes {64, 4096, 65536, 1 MiB}, 8 objects, 4 flag
    values. *)

val generate : model -> Ksurf_util.Prng.t -> t

val size_bucket : int -> int
(** Log2-ish bucket of a size — the granularity at which the coverage
    map distinguishes argument values. *)

val to_string : t -> string
val of_string : string -> t option
(** Parses the output of {!to_string}; [None] on malformed input. *)

val equal : t -> t -> bool
