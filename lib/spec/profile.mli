(** Workload profile: what a tenant's workload actually touches.

    The measurement half of kspec.  A profile records, for one
    workload, the system calls it issues, how its call sites distribute
    over the paper's six categories, and the kernel basic blocks it
    covers (the same coverage model syzgen uses).  Profiles come from
    two places: a syzgen corpus ({!of_corpus}, the offline path) or a
    live run observed program-by-program ({!recorder}, the online
    path).  {!Specializer.compile} turns a profile into an enforceable
    {!Spec.t}. *)

type t = {
  name : string;
  syscalls : string list;  (** unique, sorted by name *)
  categories : (Ksurf_kernel.Category.t * int) list;
      (** call sites per category, in {!Ksurf_kernel.Category.all}
          order (multi-category calls counted in each) *)
  coverage : Ksurf_syzgen.Coverage.Set.t;
}

val of_corpus : name:string -> Ksurf_syzgen.Corpus.t -> t

val mix : t -> float array
(** Normalized per-category call-site fractions in
    {!Ksurf_kernel.Category.all} order (sums to 1 when any call site was
    recorded, all zeros otherwise).  The baseline the kadapt drift
    detector diverges against. *)

val restrict :
  Ksurf_syzgen.Corpus.t ->
  keep:Ksurf_kernel.Category.t list ->
  Ksurf_syzgen.Corpus.t option
(** Per-call restriction of a corpus: keep the calls whose categories
    are all in [keep], drop programs left empty.  [None] when nothing
    survives.  This is how a study pins a workload to a subsystem
    subset before profiling it. *)

(** {2 Live recording}

    Observe programs as a harness issues them — e.g. feed every
    program of a varbench iteration — then {!snapshot} the profile. *)

type recorder

val recorder : name:string -> unit -> recorder
val observe : recorder -> Ksurf_syzgen.Program.t -> unit

val observed_blocks : recorder -> int
(** Distinct kernel basic blocks covered so far — the coverage-stability
    signal kadapt's promotion rule watches across audit epochs. *)

val snapshot : recorder -> t
(** Raises [Invalid_argument] if nothing was observed. *)
