(** Orchestrates the analyzers.  {!double_run} runs any workload twice:
    lockdep + invariants (one analyzer state per engine) on the first
    run, the determinism checker across both — the one way a gate
    sanitizes.  {!crash_finding} turns a run that raised into a
    finding, so a crash is reported rather than aborting the analysis. *)

type check = Lockdep | Invariants | Determinism

val check_name : check -> string

val checks_of_string : string -> (check list, string) Stdlib.result
(** Parse a comma-separated selection, e.g. ["lockdep,determinism"].
    The first unknown name is returned as [Error]. *)

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

val crash_finding : exn -> Finding.t
(** The [crash] finding for a run that raised instead of returning: a
    simulation process crash keeps its context, anything else is
    reported as an exception. *)
