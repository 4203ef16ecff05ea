(** One modeled system call. *)

type t = {
  name : string;
  number : int;  (** x86_64 syscall number (for realism in dumps) *)
  categories : Ksurf_kernel.Category.t list;  (** §5 categories, >= 1 *)
  doc : string;  (** man-page-style one-liner *)
  arg_model : Arg.model;
  ops : Arg.t -> Ksurf_kernel.Ops.op list;
      (** the kernel-op program the call executes for given arguments *)
}

val make :
  name:string ->
  number:int ->
  categories:Ksurf_kernel.Category.t list ->
  doc:string ->
  ?arg_model:Arg.model ->
  (Arg.t -> Ksurf_kernel.Ops.op list) ->
  t
(** [arg_model] defaults to {!Arg.no_args}.  Raises [Invalid_argument]
    on an empty category list or empty name.

    The builder must be a pure function of its argument: the resulting
    [ops] memoises it per in-model argument (a size from [sizes], an
    object below [max_obj], flags below [max_flags]), so a repeat call
    returns the physically same program and allocates nothing.  The
    memo is safe to share across domains.  An argument outside the
    model is passed to the builder on every call; see {!covering}. *)

val covering : t -> Arg.model -> t
(** [covering t model] is [t] with [ops] memoised over [model] as well,
    for a caller whose arguments fall outside [t.arg_model]: a repeat
    call with any argument [model] admits returns the physically same
    program and allocates nothing.  The programs are those of [t.ops];
    [arg_model] stays [t]'s, so arguments drawn from it are unchanged.
    A model wider than the memo's slot limit (4096 slots) adds no
    memo. *)

val in_category : t -> Ksurf_kernel.Category.t -> bool
val pp : Format.formatter -> t -> unit
