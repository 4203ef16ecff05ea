(** Mutation operators over programs (the Syzkaller mutation set).

    The generator combines these to explore the coverage space:
    inserting fresh calls reaches new syscalls, argument mutation
    reaches new size/flag paths, splicing combines productive call
    sequences (new edge blocks). *)

type op = Insert | Remove | Replace_arg | Splice | Swap

val all_ops : op list

val apply :
  Ksurf_util.Prng.t ->
  corpus_pick:(unit -> Program.t option) ->
  id:int ->
  op ->
  Program.t ->
  Program.t
(** [apply rng ~corpus_pick ~id op p] returns a mutant with the given
    id.  [Splice] draws a partner from [corpus_pick] (falls back to
    [Insert] when the corpus is empty).  Programs never shrink below one
    call. *)

val mutate : Ksurf_util.Prng.t -> corpus_pick:(unit -> Program.t option) ->
  id:int -> Program.t -> Program.t
(** Apply a randomly chosen operator. *)
