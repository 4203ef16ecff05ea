(** The coverage-guided generation loop.

    Candidate programs are drawn either fresh at random or by mutating
    a corpus member; a candidate is admitted iff it covers at least one
    basic block the corpus does not already cover (Syzkaller's admission
    rule).  Admitted programs are minimised: calls that contribute no
    new coverage relative to the rest of the corpus are dropped, keeping
    programs small and targeted. *)

type params = {
  seed : int;
  target_programs : int;
      (** stop once the corpus reaches this size, or after 20,000
          candidates *)
  target_calls : int option;
      (** paper-scale mode: after coverage-guided admission saturates (or
          [target_programs] is reached), keep appending mutated variants
          until the corpus holds at least this many call sites.  The
          paper's corpus had 27,408 calls against a kernel with millions
          of basic blocks; our model's block universe is far smaller, so
          strict admission alone cannot reach that size.  [None] (the
          default) keeps the pure Syzkaller discipline. *)
}

val default_params : params
(** seed 42, 64 programs.  Fresh candidates are 3–10 calls long; once
    the corpus is non-empty, 70% of candidates mutate a member. *)

type report = {
  corpus : Corpus.t;
  rounds : int;  (** candidates evaluated *)
  admitted : int;
  coverage_blocks : int;
  coverage_fraction : float;  (** of {!Coverage.universe_estimate} *)
}

val run : ?params:params -> unit -> report
(** Generate a corpus.  Deterministic for a given [params.seed]. *)

val minimise : against:Coverage.Set.t -> Program.t -> Program.t
(** Drop calls that add no coverage beyond [against]; never returns an
    empty program.  Exposed for testing. *)
