(** Hybrid exact/streaming latency summary.

    Small runs (the seed-scale varbench/tailbench configurations) keep
    every sample in an exact buffer, so summary quantiles computed from
    {!exact} are byte-identical to the historical array-based pipeline.
    Once the sample count crosses {!default_exact_cap} the buffer is
    replayed —
    in insertion order — into three {!P2_quantile} estimators
    (p50/p95/p99) and dropped; from then on the accumulator is
    constant-size no matter how many samples arrive.  Mean, variance,
    min, max and total are tracked by a {!Ksurf_util.Welford}
    accumulator throughout, in both regimes.

    This is the LiveStack-style discipline fleet studies need: a
    million-request run holds a handful of floats per statistic instead
    of a million samples. *)

type t

val default_exact_cap : int
(** 4096 — comfortably above every seed-scale per-site and per-run
    sample count, so existing CSV output is unchanged. *)

val create : unit -> t
(** Buffers up to {!default_exact_cap} samples. *)

val streaming : unit -> t
(** Never buffers: pure streaming from the first sample — for
    fleet-scale consumers that must never materialize samples. *)

val add : t -> float -> unit

val count : t -> int
val mean : t -> float
val variance : t -> float
(** Unbiased sample variance (from Welford); 0 if fewer than two
    samples. *)

val min_value : t -> float
val max_value : t -> float
val total : t -> float

val p50 : t -> float
val p95 : t -> float
val p99 : t -> float
(** Exact (type-7) while buffered, P² estimates after spilling.  0 if
    empty. *)

val exact : t -> float array option
(** The retained samples in insertion order while still buffered;
    [None] once spilled.  Callers that need historical byte-exact
    derived statistics (pooled quantiles, population variance in a
    specific fold order) recompute them from this. *)
