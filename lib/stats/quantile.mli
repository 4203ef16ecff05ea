(** Quantile and ECDF computation over float samples.

    The estimator is R's type-7 (linear interpolation between order
    statistics), the common default, applied to a sorted copy of the
    input.  All functions raise [Invalid_argument] on empty input unless
    stated otherwise. *)

val sorted_copy : float array -> float array

val of_sorted : float array -> float -> float
(** [of_sorted sorted q] with [q] in \[0,1\], on pre-sorted data. *)

val quantile : float array -> float -> float
(** [quantile samples q] sorts internally. *)

val median : float array -> float
val p99 : float array -> float
val p95 : float array -> float
val max_value : float array -> float
val min_value : float array -> float

type summary = {
  count : int;
  mean : float;
  median : float;
  p95 : float;
  p99 : float;
  min : float;
  max : float;
}

val summarize : float array -> summary
(** One-pass summary of a sample set. *)

