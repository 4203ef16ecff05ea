(** Online mean/variance accumulation (Welford's algorithm).

    Used for streaming summaries where storing every sample would be
    wasteful, e.g. per-lock wait-time accounting inside the simulator. *)

type t

val create : unit -> t
val add : t -> float -> unit

val add_cell : t -> float array -> unit
(** [add_cell t cell] is [add t cell.(0)], without boxing the sample: a
    wait or a hold computed into a float array is recorded with no
    allocation. *)

val count : t -> int
val mean : t -> float
(** 0 if empty. *)

val variance : t -> float
(** Unbiased sample variance; 0 if fewer than two samples. *)

val stddev : t -> float
val min_value : t -> float
(** [infinity] if empty. *)

val max_value : t -> float
(** [neg_infinity] if empty. *)

val total : t -> float
val merge : t -> t -> t
(** Combine two accumulators (parallel Welford merge). *)
