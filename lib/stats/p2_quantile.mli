(** Streaming quantile estimation (the P² algorithm, Jain & Chlamtac 1985).

    The harness stores every latency sample for the paper's statistics,
    but long-running deployments (the noise co-runners, multi-hour soak
    runs) need tail estimates in O(1) memory.  P² maintains five markers
    whose heights approximate the target quantile with parabolic
    adjustment; accuracy is within a few percent for the smooth,
    heavy-tailed latency distributions ksurf produces. *)

type t

val create : float -> t
(** [create q] for a quantile [q] in (0, 1), e.g. [create 0.99].
    Raises [Invalid_argument] outside the open interval. *)

val add : t -> float -> unit
val count : t -> int

val value : t -> float
(** Current estimate.  Before five samples have arrived, falls back to
    the exact small-sample quantile.  Raises [Failure] when empty. *)

val quantile_opt : t -> float option
(** [Some (value t)] when at least one sample has arrived, [None] on an
    empty estimator.  The safe no-data path for epoch logic that may
    legitimately observe nothing (an idle tenant, a zero-length audit
    window). *)

val markers : t -> float array * float array
(** Copies of the five marker heights and their positions.  Exposed so
    tests can pin the marker update bit for bit. *)

val quantile : t -> float
(** The target quantile this estimator tracks. *)
