(** Determinism checker.

    Runs the same scenario twice, folds both probe event streams
    through {!Ksurf_util.Stable_hash}, and reports the first divergent
    event.  The DES is supposed to be bit-for-bit deterministic — every
    number the repo publishes rests on it — so any divergence is an
    [Error] finding. *)

type event = { key : string; display : string }

val describe : Ksurf_sim.Engine.event_info -> event
(** [key] encodes the exact float bits so "close enough" never passes;
    [display] is the human-readable form used in reports. *)

type divergence = {
  index : int;  (** position in the event stream, 0-based *)
  first : string option;  (** event of the first run, if it had one *)
  second : string option;  (** event of the second run, if it had one *)
}

type result = {
  events_first : int;
  events_second : int;
  hash_first : int;
  hash_second : int;
  divergence : divergence option;
}

val deterministic : result -> bool

val check :
  run:(probe:(Ksurf_sim.Engine.event_info -> unit) -> unit) -> unit -> result
(** [run ~probe] must perform one complete scenario execution, feeding
    every engine event to [probe] (attach it via [Engine.add_probe] on
    every engine the scenario creates).  It is called exactly twice. *)

val pp_replay : Format.formatter -> result -> unit
(** ["replay: N vs M events, hash H1 vs H2 — identical"] (or
    [DIVERGENT]): the replay line every sanitized gate prints. *)

val to_findings : result -> Finding.t list
(** Empty when deterministic; otherwise a single [divergent-replay]
    error with the first divergent event as witness. *)
