(** Gaussian kernel density estimation.

    Figure 2 of the paper shows violin plots: a box plot overlaid with a
    kernel density of the per-syscall 99th percentiles.  [Kde] produces
    the density curve; {!Violin} combines it with the quantile box. *)

val silverman_bandwidth : float array -> float
(** Silverman's rule-of-thumb bandwidth.  Falls back to a small positive
    value for degenerate (constant) samples.  Raises [Invalid_argument]
    on empty input. *)

val estimate : float array -> float -> float
(** [estimate samples x] is the estimated density at [x], with the
    {!silverman_bandwidth} of [samples]. *)

val curve : ?points:int -> float array -> (float * float) array
(** [curve samples] evaluates the density at [points] (default 64)
    positions spanning \[min-3h, max+3h\]; returns (x, density) pairs. *)

val log_curve : ?points:int -> float array -> (float * float) array
(** Density of log10(samples), evaluated on a log-spaced grid and
    reported against the original scale — matches the log-axis violins
    in the paper.  Non-positive samples are dropped. *)
