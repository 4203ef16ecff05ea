(** Orchestrates the analyzers.  {!run} instruments a stock scenario:
    one run for the static checks (lockdep + invariants, one analyzer
    state per engine the scenario creates), plus a double run for the
    determinism checker; engine crashes during the instrumented run are
    converted into findings rather than aborting the analysis.
    {!double_run} is the same machinery as a combinator over any
    workload — the one way a CLI gate sanitizes. *)

type check = Lockdep | Invariants | Determinism

val all_checks : check list

val check_name : check -> string
val check_of_string : string -> check option

val checks_of_string : string -> (check list, string) Stdlib.result
(** Parse a comma-separated selection, e.g. ["lockdep,determinism"].
    The first unknown name is returned as [Error]. *)

type outcome = {
  scenario : Scenarios.t;
  seed : int;
  checks : check list;
  findings : Finding.t list;  (** sorted: errors first *)
  events : int;  (** probe events observed across all runs *)
  runs : int;  (** scenario executions performed *)
}

val double_run :
  run:(on_engine:(Ksurf_sim.Engine.t -> unit) -> 'a) ->
  unit ->
  'a * Determinism.result * Finding.t list
(** [double_run ~run ()] calls [run] exactly twice.  [on_engine] must be
    applied to every engine the run creates: on the first call it
    attaches lockdep + invariants (checked once both calls are done), on
    both calls the determinism probe.  Returns the second call's value,
    the replay comparison, and the findings — static first, then
    determinism.  Exceptions from [run] propagate. *)

val run : scenario:Scenarios.t -> seed:int -> checks:check list -> unit -> outcome

val pp_outcome : Format.formatter -> outcome -> unit
(** Summary line followed by each finding (or an explicit "all checks
    clean"). *)
