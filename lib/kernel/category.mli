(** System-call categories (§5 of the paper).

    Each Linux system call is assigned one or more of six categories
    reflecting its purpose; Figure 2 analyses 99th-percentile latency per
    category.  Some calls belong to several (the paper's example: [chmod]
    is both filesystem-management and permission related). *)

type t =
  | Process  (** (a) process management / scheduling *)
  | Memory  (** (b) memory management *)
  | File_io  (** (c) file I/O *)
  | Fs_mgmt  (** (d) filesystem management *)
  | Ipc  (** (e) inter-process communication *)
  | Perm  (** (f) permission / capabilities management *)

val all : t list
(** In the paper's (a)–(f) order. *)

val to_string : t -> string
val of_string : string -> t option
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
val index : t -> int
(** 0-based position in {!all}. *)
