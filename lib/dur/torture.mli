(** Crash-consistency torture cells for the durable writer paths.

    One cell tortures one writer path — the completed-cell journal or
    the atomic CSV export — at one fault dose, in two phases:

    {b Enumeration} (clean trace): the writer's op trace is recorded
    and every {!Crashsim} crash state is materialised into a scratch
    directory; recovery is re-run from each and its invariants
    asserted — journal recovery never double-runs or loses a recorded
    cell, exports are never partial, no [*.tmp.*] litter survives.
    Synthetic torn journal files (truncated mid-line) are thrown in to
    prove the checksum refusal path fires.

    {b Live runs}: the same workload repeated under a seed-scaled
    [io-mixed] {!Durplan} plus a per-run crash-at-op, with recovery
    (sweep litter, reload, recompute what is missing, drain deferred
    journal persists) after every simulated death, until the workload's
    final state is byte-exact.  Fault counts come from the cell's own
    {!Faultio} injector, so they are deterministic and job-count
    independent. *)

type kind = Journal_path | Export_path

val all_kinds : kind list
val kind_name : kind -> string

type config = {
  kind : kind;
  dose : float;  (** 0 = fault-free control *)
  runs : int;  (** live faulted runs *)
  seed : int;
  scratch : string;  (** private scratch directory for this cell *)
}

type result = {
  kind : string;
  dose : float;
  trace_ops : int;  (** ops in the clean writer trace *)
  crash_points : int;
  crash_states : int;  (** distinct states enumerated (incl. synthetic) *)
  enum_violations : int;  (** must be 0 *)
  torn_refused : int;  (** torn/corrupt files refused by checksums *)
  live_runs : int;
  live_ok : int;  (** runs fully recovered, byte-exact *)
  recovery_ok : float;  (** live_ok / live_runs; 1.0 required *)
  crashes : int;
  transients : int;
  enospc : int;
  eio : int;
  torn_writes : int;
  fsync_dropped : int;
  deferred_persists : int;  (** journal persists deferred by ENOSPC *)
  cells_lost : int;  (** journal cells lost across all runs; must be 0 *)
  double_runs : int;  (** recorded cells re-executed; must be 0 *)
  litter : int;  (** temp files found (and swept) during recovery *)
  litter_after : int;  (** temp files surviving recovery; must be 0 *)
}

val run : config -> result

val violations : result -> int
(** [enum_violations + cells_lost + double_runs + litter_after] plus
    one per unrecovered live run — the cell's gate; 0 means every
    invariant held at every crash point. *)
