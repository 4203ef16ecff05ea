(** Unbounded FIFO channel between simulation processes.

    The client/server request path of the tailbench models: producers
    {!send} without blocking, consumers {!recv} and suspend while the
    queue is empty.  Multiple waiting consumers are served in FIFO
    order. *)

type 'a t

val create : engine:Engine.t -> name:string -> 'a t
val send : 'a t -> 'a -> unit
val recv : 'a t -> 'a
(** Suspends (in virtual time) until a message is available. *)

val length : 'a t -> int
(** Messages queued (0 when consumers are waiting). *)

val sent : 'a t -> int
(** Total messages ever sent. *)
