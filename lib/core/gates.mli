(** The gate list: every correctness gate as one entry, run by one
    runner and invoked by one command ([ksurf_cli analyze]).

    A gate is a small, fast configuration of one workload family — the
    shared kernel (varbench, tailbench, BSP), its faulted, specialized,
    parallel-sweep, tenancy and durability extensions.  {!run} executes
    it twice through {!Ksurf_analysis.Sanitizer.double_run} (lockdep +
    invariants on the first run, the determinism replay across both),
    then hands the second run's result to the gate's [check], which
    returns one FAIL line per violated accounting condition.
    {!Inversion} is the deliberately broken negative control (an AB/BA
    lock-order inversion at disjoint virtual times) and is not in
    {!stock}. *)

module type S = sig
  type result

  val name : string

  val run : seed:int -> on_engine:(Ksurf_sim.Engine.t -> unit) -> result
  (** One deterministic run.  [on_engine] is called on every engine to
      sanitize, before anything is spawned on it. *)

  val check : result -> string list
  (** FAIL lines; empty when the result is consistent. *)
end

type t = (module S)

val name : t -> string

val stock : t list
(** Every gate the tree must pass, in run order: varbench, tailbench,
    bsp, faulted-varbench, faulted-tailbench, specialized-varbench,
    parallel-sweep, tenancy, torture. *)

module Inversion : S with type result = unit

(** The gates with accounting checks, typed so a result can be
    inspected (or tampered with) before it is checked. *)

module Specialized_varbench : sig
  type result = { harness : Ksurf_varbench.Harness.result; denials : int }

  include S with type result := result
end
(** Zero policy denials: the allowlist must cover its own profile. *)

module Tenancy : S with type result = Ksurf_tenant.Fleet.result
(** Seven SLO-accounting consistency checks. *)

type report = {
  gate : string;
  seed : int;
  replay : Ksurf_analysis.Determinism.result option;
      (** [None] when the gate raised *)
  findings : Ksurf_analysis.Finding.t list;  (** sorted: errors first *)
  failures : string list;  (** the gate's FAIL lines *)
}

val run : t -> seed:int -> report
(** Double-run the gate under the sanitizers, then check the second
    run's result.  An exception becomes a [crash] finding. *)

val clean : report -> bool
(** No findings and no failures. *)

val pp_report : Format.formatter -> report -> unit
(** Summary line, the replay line, each FAIL line and finding (or an
    explicit "all checks clean"). *)
