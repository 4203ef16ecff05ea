(** Repo-specific source lint (klint), built on the compiler's own
    parser ([compiler-libs]).

    [Mutable_state] flags module-level [ref]/[Hashtbl.create]/
    [Buffer.create] bindings — state implicitly shared across worker
    domains — unless the binding routes through [Domain.DLS], creates
    a mutex alongside the state, or carries a [(* klint: allow *)]
    annotation on the flagged line or the line above.  Creations
    inside a [fun] body do not count: they are fresh per call.

    [Raw_open_out] flags any direct [open_out]/[open_out_bin]/
    [open_out_gen] use ([raw-open-out]), plus [Unix.openfile]
    ([raw-openfile]) and [Sys.rename] ([raw-rename]) on durable
    paths; such writes must go through [Ksurf_util.Fileio] so they
    are crash-consistent and visible to the I/O hook. *)

type check = Mutable_state | Raw_open_out

type finding = { file : string; line : int; code : string; message : string }

val pp_finding : Format.formatter -> finding -> unit

val lint_source : path:string -> checks:check list -> string -> finding list
(** Lint source text directly (used by the fixture tests).  An
    unparseable input yields a single [parse-error] finding. *)

val lint_file : checks:check list -> string -> finding list

val default_checks : path:string -> check list
(** The repo policy: [Mutable_state] for files under [lib/sim] and
    [lib/par]; [Raw_open_out] for everything except [fileio.ml]
    itself. *)
