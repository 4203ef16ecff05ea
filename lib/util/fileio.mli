(** Crash-consistent file I/O.

    Every file ksurf writes that a later run depends on — the
    completed-cell journal, CSV exports, fault plans — goes through
    {!write_atomic}: write to a sibling temp file (unique per process
    and call, so concurrent writers cannot clobber each other's temp),
    flush, [fsync], atomically rename over the destination, then
    [fsync] the containing directory so the rename itself is durable.
    A crash mid-write leaves the previous complete file (or nothing),
    never a truncated one.

    Every host I/O primitive consults the ambient {!Iohook} handler
    first, so a caller can observe the op stream and a test can make an
    op fail with a chosen errno.  Transient [EINTR]/[EAGAIN] — real or
    injected — is absorbed by a bounded retry with exponential
    backoff. *)

exception Io_error of string
(** An I/O failure (ENOSPC, permissions, missing directory, …) with the
    affected path.  Raised instead of [Sys_error] so the CLI can map
    file-system trouble to a distinct exit code. *)

val write_atomic : path:string -> (out_channel -> unit) -> unit
(** [write_atomic ~path f] runs [f] on a temp channel, flushes, fsyncs,
    renames the temp file to [path] and fsyncs the containing
    directory.  On failure the temp file is removed and {!Io_error}
    raised; [path] is never left partial.  Safe against concurrent
    writers to the same [path]: temp names are unique per process and
    call, and each rename installs one complete file. *)

val read_lines : string -> string list
(** All lines of a file.  Raises {!Io_error} if unreadable. *)

val ensure_dir : string -> unit
(** [ensure_dir dir] creates [dir] and any missing parents (fsyncing
    each parent after creating a new entry, so a crash cannot forget
    the directory).  No-op if [dir] already exists; {!Io_error} if a
    path component exists but is not a directory, or on any other
    failure. *)

val remove : string -> unit
(** Remove a file, through the I/O hook.  Raises {!Io_error}. *)

val sweep_tmp : dir:string -> int
(** Remove every [*.tmp.*] temp file left in [dir] by crashed writers;
    returns how many were swept.  A missing or unreadable [dir] sweeps
    nothing (0). *)
