(** Workload profile: what a tenant's workload actually touches.

    The measurement half of kspec.  A profile records, for one
    workload, the system calls it issues, how its call sites distribute
    over the paper's six categories, and the kernel basic blocks it
    covers (the same coverage model syzgen uses).  A profile comes from
    a syzgen corpus ({!of_corpus}); {!Specializer.compile} turns it into
    an enforceable {!Spec.t}. *)

type t = {
  name : string;
  syscalls : string list;  (** unique, sorted by name *)
  categories : (Ksurf_kernel.Category.t * int) list;
      (** call sites per category, in {!Ksurf_kernel.Category.all}
          order (multi-category calls counted in each) *)
  coverage : Ksurf_syzgen.Coverage.Set.t;
}

val of_corpus : name:string -> Ksurf_syzgen.Corpus.t -> t

val restrict :
  Ksurf_syzgen.Corpus.t ->
  keep:Ksurf_kernel.Category.t list ->
  Ksurf_syzgen.Corpus.t option
(** Per-call restriction of a corpus: keep the calls whose categories
    are all in [keep], drop programs left empty.  [None] when nothing
    survives.  This is how a study pins a workload to a subsystem
    subset before profiling it. *)
