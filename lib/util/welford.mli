(** Online mean/variance accumulation (Welford's algorithm).

    Used for streaming summaries where storing every sample would be
    wasteful, e.g. per-lock wait-time accounting inside the simulator. *)

type t

val create : unit -> t
val add : t -> float -> unit

val add_span : t -> since:float -> until:float -> unit
(** [add_span t ~since ~until] is [add t (until -. since)], without
    boxing the difference: recording a wait or a hold from two stored
    times allocates nothing. *)

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
