(** ALICE-style crash-state enumeration for durable writers.

    {!record} captures the exact host-I/O op trace of a writer run
    (journal append, export), with paths made
    relative to a root directory.  {!enumerate} then replays every
    crash-point prefix of that trace against a small filesystem model
    that distinguishes {e volatile} effects (applied, but not yet
    guaranteed) from {e durable} ones (file data fsynced; directory
    entries — creates, renames, removes — fsynced via their parent
    directory), and yields the legal on-disk states a crash at that
    point can leave:

    - {b durable-min}: only guaranteed effects survive — un-fsynced
      file data is lost (zero-length files), un-fsynced directory
      updates revert (a rename is forgotten, the old version
      reappears);
    - {b torn}: directory updates applied, but in-flight file data cut
      mid-write;
    - {b all-applied}: every effect reached disk.

    States are deduplicated by content (invariant under temp-file
    naming, so enumeration counts are deterministic across parallel
    runs).  {!materialize} writes a state into a scratch directory so
    recovery can be run against it for real. *)

type state = { files : (string * string) list }
(** Root-relative path [->] content, sorted by path.  Directories are
    implied by the paths. *)

val record :
  root:string -> (unit -> 'a) -> ('a, exn) result * Ksurf_util.Iohook.op list
(** Run the callback with a recording hook installed; returns its
    outcome (exceptions are captured, so a workload that legitimately
    fails still yields its trace) and the in-[root] op trace with
    root-relative paths. *)

val crash_points : Ksurf_util.Iohook.op list -> int
(** Number of crash-point prefixes [enumerate] considers ([n + 1] for
    a trace of [n] ops). *)

val enumerate : Ksurf_util.Iohook.op list -> (int * state) list
(** All distinct crash states, tagged with the prefix length that
    produces them; globally deduplicated. *)

val final_durable : Ksurf_util.Iohook.op list -> state
(** The durable-min state after the {e complete} trace — what must
    survive a crash that happens after the writer returned.  Recovery
    from this state must find everything the writer promised. *)

val materialize : dir:string -> state -> unit
(** Reset [dir] to exactly [state]: existing contents are removed,
    files (and implied subdirectories) written raw.  [dir] itself is
    created if missing. *)

val rm_tree : string -> unit
(** Remove a file or a whole directory tree; a missing path is a
    no-op. *)
