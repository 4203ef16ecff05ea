(** A corpus: the set of generated programs used as the workload.

    Mirrors the paper's "libsyzcorpus": every program covers at least
    one kernel basic block no other program covers (guaranteed by the
    generator's admission rule). *)

type t

val of_programs : Program.t list -> t
(** Raises [Invalid_argument] on an empty list. *)

val programs : t -> Program.t array
val program_count : t -> int
val total_calls : t -> int
(** Total call sites across all programs — the paper's "27,408 system
    calls" figure for its corpus. *)

val coverage : t -> Coverage.Set.t
val unique_syscalls : t -> string list
val category_histogram : t -> (Ksurf_kernel.Category.t * int) list
(** Call sites per category (multi-category calls counted in each). *)

val to_string : t -> string
(** Printable serialisation: programs separated by [%] lines. *)

val of_string : string -> (t, string) result

val save : t -> string -> unit
(** Write {!to_string} to a file. *)

val load : string -> (t, string) result

val pp_stats : Format.formatter -> t -> unit
