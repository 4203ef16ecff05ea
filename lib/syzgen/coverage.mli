(** Basic-block coverage model of the simulated kernel.

    Real Syzkaller instruments the kernel (KCOV) and observes which
    basic blocks each program traverses.  Our kernel is the op
    interpreter, so the analogue is exact: a call's "blocks" are its
    kernel ops, discriminated by the argument features that select
    different paths (size bucket, flags, path depth), plus {e edge}
    blocks for state-dependent paths exercised by specific call pairs
    (e.g. [read] after [open] takes the warm-descriptor path).

    Block identifiers are stable hashes ({!Ksurf_util.Stable_hash}), so
    coverage is reproducible across runs and platforms. *)

module Set : sig
  type t

  val empty : t
  val cardinal : t -> int
  val union : t -> t -> t
  val diff_cardinal : t -> t -> int
  (** [diff_cardinal a b] = number of blocks in [a] not in [b]. *)

  val subset : t -> t -> bool
  val equal : t -> t -> bool
  val mem : int -> t -> bool
end

val blocks_of_call :
  prev:Ksurf_syscalls.Spec.t option ->
  Ksurf_syscalls.Spec.t ->
  Ksurf_syscalls.Arg.t ->
  Set.t
(** Blocks traversed by one call, including the edge block from [prev]
    when present. *)

val of_program : Program.t -> Set.t
(** Union over the program's calls (with sequential edges). *)

val universe_of_call : Ksurf_syscalls.Spec.t -> Set.t
(** Every block one syscall can express across its whole argument model
    (no edge blocks) — the per-call term of the functional surface-area
    metric. *)

val universe : unit -> Set.t
(** Union of {!universe_of_call} over the full syscall table (memoized;
    the table is fixed at build time). *)

val universe_estimate : unit -> int
(** Upper bound on the number of distinct non-edge blocks the model can
    express — lets the generator report percentage coverage. *)
