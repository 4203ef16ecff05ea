(** Typed fault plans: the kfault injection language.

    A plan is a named list of fault actions; {!Kfault.arm} compiles it
    into injection hooks on a deployed environment.  Plans are
    first-class data: they serialise to a line-oriented text format
    ({!to_string} / {!of_string}), ship as named {!presets}, and scale
    along a single intensity axis ({!scale}) — the dose knob of the
    dose–response experiment.

    Everything a plan injects is sampled from streams split off one
    seed, so the same (plan, seed) pair replays the same faults at the
    same virtual times. *)

type syscall_failures = {
  rates : (Ksurf_kernel.Category.t * float) list;
      (** per-category probability that a call fails transiently *)
  eintr_share : float;
      (** fraction of injected failures reported as EINTR (rest EAGAIN) *)
}

type daemon_storm = {
  jbd2 : float;
  kswapd : float;
  load_balancer : float;
  cgroup_flusher : float;
}
(** Lock-hold multipliers per background daemon; 1.0 = stock. *)

type lock_preemption = {
  lock_class : string;  (** lockdep-style class, e.g. ["journal"] *)
  probability : float;  (** per-acquisition stretch probability *)
  stretch_ns : float;  (** critical-section extension when it fires *)
}

type rank_crash = {
  rank : int;
  at_ns : float;  (** virtual time of the crash *)
  restart_after_ns : float option;  (** downtime; [None] = permanent *)
}

type action =
  | Syscall_failures of syscall_failures
  | Daemon_storm of daemon_storm
  | Lock_preemption of lock_preemption
  | Ipi_storm of { period_ns : float }
      (** one extra TLB shootdown per period per kernel instance *)
  | Cache_flush_storm of {
      period_ns : float;
      window_ns : float;
      pressure : float;
    }  (** periodically depress software-cache hit rates for a window *)
  | Slow_memory of {
      period_ns : float;
      window_ns : float;
      dilation : float;
    }  (** periodically dilate in-kernel CPU time (slow memory channel) *)
  | Device_stall of { probability : float; stall_ns : float }
      (** stretch block-device occupancy at acquisition time *)
  | Rank_crash of rank_crash
  | Workload_drift of { at_ns : float; shift : float }
      (** at virtual time [at_ns], shift fraction [shift] of the
          workload's syscall mix onto subsystems outside its learned
          profile.  The fault layer only announces the drift — the
          harness registers a sink ({!Kfault.set_drift_sink}) that
          actually mutates its program mix, so any workload generator
          can opt in. *)

type t = { name : string; actions : action list }

val scale : float -> t -> t
(** [scale k plan] is the dose knob: probabilities and rates multiply
    by [k] (clamped to 1), hold/dilation multipliers interpolate as
    [1 + k*(m-1)], storm periods divide by [k], stretch/stall sizes and
    cache pressure multiply by [k].  [k = 0] yields a plan that injects
    nothing; crash schedules are kept verbatim for [k > 0] (a crash has
    no meaningful half-dose) and dropped at [k = 0].  Workload drifts
    scale their mix shift (clamped to 1) and keep their trigger time. *)

val to_string : t -> string
(** One action per line; round-trips through {!of_string}. *)

val of_string : string -> (t, string) result
(** Parse the text format.  Blank lines and [#] comments are ignored;
    the first [name <string>] line names the plan. *)

val load : string -> (t, string) result
(** Read a plan file. *)

val presets : (string * t) list
(** Named built-in plans: ["syscalls"], ["storms"], ["preempt"],
    ["mixed"] (every mechanism except crashes), ["crashy"] (mixed plus
    a crash/restart schedule), ["drift"] (a mid-run workload syscall-mix
    shift — the kadapt dose–response driver). *)

val preset : string -> t option
