(** Fixed-size [Domain]-based worker pool for sweep cells.

    Every study in this repo is a sweep of fully independent cells —
    each cell owns its own {!Ksurf_sim.Engine} and split PRNG stream —
    so cells can execute on any domain in any order without changing
    their results.  {!map} fans a cell list out across the pool's
    domains and merges the results back in canonical input order, so a
    parallel sweep is bit-identical to a sequential one ([~jobs:1] and
    [~jobs:n] produce the same CSVs, exports and tables for every
    study).  Determinism therefore lives in the {e merge}, never in the
    schedule.

    The submitting domain participates in its own batch (it claims and
    runs cells alongside the workers), so a pool of [jobs] runs at most
    [jobs] cells concurrently and [map] may be called from inside a
    worker task (a cell that runs a sweep of its own) without deadlock:
    the nested caller drains its own batch. *)

type t

val default_jobs : unit -> int
(** [KSURF_JOBS] when set to a positive integer, otherwise
    [max 1 (Domain.recommended_domain_count () - 1)] — one domain is
    left for the OS and the submitting main loop.  A malformed
    [KSURF_JOBS] (zero, negative, or not a number) is diagnosed on
    stderr and falls back to the machine default; an empty string is
    treated as unset, silently (putenv cannot remove a variable). *)

val tune_minor_heap : unit -> unit
(** Grow the calling domain's minor heap to the kpar default of 8M
    words, unless the user already chose a size via [s=<n>] in the
    runtime's parameters: [OCAMLRUNPARAM], or [CAMLRUNPARAM] when
    [OCAMLRUNPARAM] is unset, as the runtime reads them.  Never
    shrinks.

    OCaml 5 minor collections are a stop-the-world rendezvous of every
    domain, and the setting does not propagate to spawned domains —
    {!create} calls this for the submitting domain and each worker
    calls it for itself.  Exposed so a benchmark that measures outside
    any pool runs under the same GC regime as a sweep. *)

val resolve_jobs : ?cli:int -> unit -> int
(** The worker-count precedence rule of [ksurf_cli]: an explicit
    [--jobs] value ([cli], clamped to at least 1) always wins over
    [KSURF_JOBS], which wins over the machine-derived default
    ({!default_jobs}). *)

val create : ?jobs:int -> unit -> t
(** A pool running at most [jobs] (default {!default_jobs}) cells
    concurrently: [jobs - 1] worker domains plus the submitting domain.
    [jobs <= 1] spawns no domains at all — {!map} then degenerates to
    [List.map] on the calling domain. *)

val jobs : t -> int

val map : pool:t -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~pool f cells] applies [f] to every cell, running up to
    [jobs pool] applications concurrently, and returns the results in
    input order.  If one or more applications raise, the exception of
    the {e earliest failing cell in input order} is re-raised (with its
    backtrace) after every cell has finished — which exception wins is
    therefore deterministic.  [f] must not assume anything about which
    domain it runs on; cells must not share mutable state except
    through their own synchronisation (e.g. the mutex-guarded
    {!Ksurf_recov.Journal} through which the ledger's partitioned sweep
    and the parallel-sweep gate record completed cells). *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  Calling {!map}
    after [shutdown] raises [Invalid_argument]. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run, and always [shutdown] (also on exceptions). *)
