(** Completed-cell journal.

    Records completed sweep cells (free-form string keys) so a run that
    dies can skip the work already done when it starts again.  The
    ledger's partitioned-sweep workload and the parallel-sweep gate
    journal their cells through it.  Every line is checksummed
    individually — a torn write from a dying process is dropped on
    load, not trusted.  All writes are atomic (temp + fsync + rename)
    and raise {!Ksurf_util.Fileio.Io_error} on file-system trouble.

    Membership is O(1) (hashtable, not a list scan), and persists are
    batched: the file is rewritten once every [flush_every] newly
    recorded cells and on {!flush}, not on every {!record}.  A crash
    between persists loses at most [flush_every - 1] cells, which are
    simply recomputed on restart — the journal is a cache of completed
    work, never the source of truth.

    All operations are thread-safe (internal mutex), so a journal can
    serve as the single write funnel for parallel sweep workers. *)

type t

val load : ?flush_every:int -> path:string -> unit -> t
(** Load a journal.  Total: it never fails on the file's text.  A
    missing, empty or unrecognisable file yields an empty journal at
    that path, and each line it cannot parse (a torn tail, a failed
    checksum) is skipped, so its cell is recomputed on restart.  It
    returns a bare [t], not a result, because a skipped line costs one
    recomputed cell and never a wrong one.  [flush_every] (default
    {!default_flush_every}, clamped to [>= 1]) sets how many newly
    recorded cells accumulate before the file is rewritten. *)

val record : t -> string -> unit
(** Mark a cell complete.  Idempotent per key.  Persists to disk only
    when the batch threshold is reached; call {!flush} to force. *)

val flush : t -> unit
(** Persist any recorded-but-unwritten cells now.  No-op when clean.
    Sweeps call this when they finish (and periodically mid-sweep via
    the batch threshold).

    Neither {!record} nor {!flush} raises on file-system trouble: a
    failed persist (ENOSPC, directory gone) keeps the cells buffered in
    memory and is retried by every subsequent persist attempt — the
    sweep keeps computing and no completed cell is ever lost to a full
    disk.  Check {!persist_pending} after the final flush: if it is
    still true the completed cells are not yet on disk. *)

val persist_pending : t -> bool
(** Are there recorded cells not yet safely on disk?  True after a
    persist failure until a retry succeeds. *)

val mem : t -> string -> bool
(** Has this cell already completed? *)

val cells : t -> string list
(** Completed cells in completion order. *)

