(** Operation-level hook under every host I/O primitive.

    {!Fileio} consults the ambient handler (if any) before each durable
    I/O operation — open, fsync, rename, remove, read, mkdir — which
    lets a caller observe the op stream of a writer (the ledger counts
    journal persists by their renames) and lets a test make an op fail
    with a chosen errno.

    The handler is {e domain-local} ([Domain.DLS]): a handler installed
    in one pool domain sees only that domain's ops, and code running
    with no handler installed pays only a [Domain.DLS.get] per
    operation. *)

type op =
  | Open of { path : string }  (** create/truncate a temp file for writing *)
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

type handler = op -> outcome

val path_of : op -> string
(** The primary path the op touches ([src] for renames). *)

val consult : op -> outcome
(** Ask the ambient handler about [op].  Returns {!Proceed} when no
    handler is installed. *)

val with_handler : handler -> (unit -> 'a) -> 'a
(** Install [handler] in this domain for the duration of the callback
    (restoring any previous handler afterwards, so handlers nest). *)
