(** Capacity-[n] queueing station.

    Generalises {!Lock} to [n] concurrent holders.  Models block-device
    queues, memory channels, and the host-side virtio service threads:
    anything where up to [n] requests proceed in parallel and the rest
    queue FIFO. *)

type t

val create : engine:Engine.t -> name:string -> capacity:int -> t
(** Raises [Invalid_argument] if capacity < 1. *)

val acquire : t -> unit

val release : t -> unit
(** Raises [Invalid_argument] (naming the station) if no slot is in
    use. *)

val in_use : t -> int
val served : t -> int
