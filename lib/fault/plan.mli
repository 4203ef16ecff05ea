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

type t = { name : string; actions : action list }

val scale : float -> t -> t
(** [scale k plan] is the dose knob: probabilities and rates multiply
    by [k] (clamped to 1), hold/dilation multipliers interpolate as
    [1 + k*(m-1)], storm periods divide by [k], stretch/stall sizes and
    cache pressure multiply by [k].  [k = 0] yields a plan with no
    actions, which injects nothing.  A negative [k] raises
    [Invalid_argument]. *)

val to_string : t -> string
(** One action per line; round-trips through {!of_string}. *)

val of_string : string -> (t, string) result
(** Parse the text format.  Blank lines and [#] comments are ignored;
    the first [name <string>] line names the plan.  Total: malformed
    text, an action keyword the language does not have included, is an
    [Error] naming the line, never an exception. *)

val load : string -> (t, string) result
(** Read a plan file. *)

val presets : (string * t) list
(** Named built-in plans: ["syscalls"], ["storms"], ["preempt"] and
    ["mixed"] (every mechanism). *)

val preset : string -> t option
