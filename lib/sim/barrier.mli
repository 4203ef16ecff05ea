(** Reusable n-party barrier.

    The varbench harness inserts one of these between every system-call
    program so that all ranks issue the next program at the same virtual
    time; the cluster harness uses one per BSP iteration.  Reusable in
    the generation-counting sense: a party arriving "early" for the next
    round simply joins the next generation. *)

type t

val create : engine:Engine.t -> name:string -> parties:int -> t
(** Raises [Invalid_argument] if parties < 1. *)

val arrive : t -> unit
(** Block until all [parties] processes have arrived for this
    generation, then all are released at the same virtual time. *)

val arrive_with_cost : t -> per_party_cost:float -> unit
(** Like {!arrive} but adds a synchronisation cost after release —
    models the latency of an MPI barrier over the virtual network. *)

val generation : t -> int
(** Completed generations, for tests. *)

val waiting : t -> int
