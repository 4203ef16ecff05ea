(** Reader-writer lock (writer-preferring, FIFO within each class).

    Models structures like [mmap_sem]: page faults take it for reading
    concurrently, while [mmap]/[munmap]/[mprotect] take it for writing
    and exclude everyone — the mechanism behind memory-management
    variability spikes in the kernel model. *)

type t

val create : engine:Engine.t -> name:string -> t

val acquire_read : t -> unit

val release_read : t -> unit
(** Raises [Invalid_argument] (naming the lock) if no reader holds it. *)

val acquire_write : t -> unit

val release_write : t -> unit
(** Raises [Invalid_argument] (naming the lock) if no writer holds it. *)

val readers : t -> int
