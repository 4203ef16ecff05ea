(** Probability distributions used by the machine and kernel models.

    All samplers take the {!Prng.t} stream explicitly.  Times are plain
    floats; ksurf uses nanoseconds of virtual time throughout, but nothing
    here depends on the unit. *)

type t
(** A distribution over non-negative floats. *)

val constant : float -> t
(** Degenerate distribution (always the same value). *)

val uniform : lo:float -> hi:float -> t
(** Uniform on \[lo, hi). *)

val exponential : mean:float -> t
(** Exponential with the given mean. *)

val lognormal : median:float -> sigma:float -> t
(** Lognormal parameterised by its median and the log-space std dev.
    The workhorse for latencies: right-skewed with controllable tail. *)

val bounded_pareto : lo:float -> hi:float -> shape:float -> t
(** Pareto truncated to \[lo, hi\]. *)

val shifted : float -> t -> t
(** [shifted c d] adds constant [c] to each sample of [d]. *)

val scaled : float -> t -> t
(** [scaled f d] multiplies each sample of [d] by [f] ([f >= 0]). *)

val sample : t -> Prng.t -> float
(** Draw one sample; always [>= 0] (negatives are clamped). *)

val sample_into : t -> Prng.t -> float array -> unit
(** [sample_into d rng cell] stores in [cell.(0)] the bits [sample d rng]
    would return, after the same draws from [rng].  Nothing is boxed,
    so a hot path that reads the sample from the cell allocates
    nothing for it. *)

val mean_estimate : t -> float
(** Analytic mean; used to set client arrival rates for target
    utilisation. *)
