(** A syzgen program: a straight-line sequence of system calls.

    This mirrors a Syzkaller corpus entry: each program is small, its
    calls and arguments are fixed, and every invocation of the program
    issues exactly the same call sequence — the property the paper
    relies on to compare the "same position in its program with the same
    arguments" across environments (§4.2). *)

type call = { spec : Ksurf_syscalls.Spec.t; arg : Ksurf_syscalls.Arg.t }

type t = { id : int; calls : call list }

val length : t -> int

val call_site : t -> int -> call
(** [call_site p i] is the [i]-th call.  Raises [Invalid_argument] if
    out of range. *)

val random :
  Ksurf_util.Prng.t -> id:int -> min_len:int -> max_len:int -> t
(** A fresh random program with length uniform in [min_len, max_len]. *)

val to_string : t -> string
(** Textual form, one call per line: [name(size:obj:flags)]. *)

val of_string : id:int -> string -> (t, string) result
(** Parse {!to_string} output.  Unknown syscall names are an error. *)

val equal : t -> t -> bool
(** Same call sequence (ids may differ). *)
