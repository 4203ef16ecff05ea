(** Operation-level hook under every host I/O primitive.

    {!Fileio} consults the ambient handler (if any) before each durable
    I/O operation — open, write, fsync, rename, remove, read, mkdir —
    which lets a test or torture harness observe the exact op stream of
    a writer, inject typed failures (transient [EINTR]/[EAGAIN],
    [ENOSPC] windows, hard [EIO]), tear a write, silently drop an
    fsync, or simulate a process crash at a chosen op.

    The handler is {e domain-local} ([Domain.DLS]): parallel sweep
    workers can each run an isolated fault schedule without seeing each
    other's, and code running with no handler installed pays only a
    [Domain.DLS.get] per operation. *)

type op =
  | Open of { path : string }  (** create/truncate a temp file for writing *)
  | Write of { path : string; content : string }
      (** the complete bytes of one atomic write (consulted after the
          data reached the OS, before it is fsynced) *)
  | Fsync of { path : string }
  | Fsync_dir of { path : string }  (** directory-entry durability *)
  | Rename of { src : string; dst : string }
  | Remove of { path : string }
  | Read of { path : string }
  | Mkdir of { path : string }

type outcome =
  | Proceed  (** perform the operation normally *)
  | Fail of Unix.error
      (** the operation fails with this errno; {!Fileio} retries
          [EINTR]/[EAGAIN] and maps the rest to [Io_error] *)
  | Torn of float
      (** [Write] only: keep this fraction of the bytes, then crash —
          a power-cut mid-write *)
  | Drop
      (** [Fsync]/[Fsync_dir] only: report success without syncing
          (silently-dropped flush); elsewhere equivalent to [Proceed] *)
  | Crash  (** simulated process death before the op takes effect *)

type handler = op -> outcome

exception Crashed of string
(** Simulated process death ({!Crash} or the tail of {!Torn}).  Raised
    through the writer; deliberately {e not} an [Io_error], so cleanup
    paths that a dead process could never run (temp-file removal) are
    skipped, exactly as a real crash would leave them. *)

val path_of : op -> string
(** The primary path the op touches ([src] for renames). *)

val active : unit -> bool
(** Is a handler installed in this domain? *)

val consult : op -> outcome
(** Ask the ambient handler about [op].  Returns {!Proceed} when no
    handler is installed; raises {!Crashed} on {!Crash}. *)

val with_handler : handler -> (unit -> 'a) -> 'a
(** Install [handler] in this domain for the duration of the callback
    (restoring any previous handler afterwards, so handlers nest). *)
