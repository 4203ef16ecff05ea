(** The kfault compiler: arm a {!Plan} against a deployed environment.

    {!arm} installs every injection hook the plan needs — the env-level
    syscall fault control, the engine-level Lock/Resource acquire hook,
    per-instance daemon-hold multipliers, and background storm processes
    (IPI, cache-flush, slow-memory) — and returns a handle with
    injection counters.

    Determinism: all injected randomness is drawn from streams split
    off [seed] by component label, and consumed in simulation event
    order, so the same (plan, seed, scenario) triple replays the exact
    same faults.  Every firing is reported through the engine probe
    stream as {!Ksurf_sim.Engine.Injected}, which puts injections under
    the ksan determinism hash.

    One armed kfault per engine: arming installs the single engine
    acquire hook and the env fault control.  {!disarm} restores stock
    behaviour (storm processes exit at their next wake-up). *)

type stats = {
  syscall_faults : int;  (** EAGAIN/EINTR injections delivered *)
  lock_preemptions : int;  (** critical sections stretched *)
  device_stalls : int;  (** block-device occupancies stretched *)
  daemon_storm_passes : int;  (** daemon passes run with a multiplier *)
  ipi_storms : int;  (** extra TLB shootdowns executed *)
  cache_flushes : int;  (** cache-pressure windows opened *)
  slow_memory_windows : int;  (** burn-dilation windows opened *)
  crashes_scheduled : int;  (** ranks with a crash time in the plan *)
  workload_drifts : int;  (** workload syscall-mix shifts delivered *)
}

type t

val arm : env:Ksurf_env.Env.t -> plan:Plan.t -> seed:int -> unit -> t
(** Compile [plan] into live hooks on [env] and its engine/instances.
    Storm processes are spawned at the current virtual time. *)

val disarm : t -> unit
(** Remove every hook and restore stock multipliers/pressure. *)

val set_drift_sink : t -> (shift:float -> unit) option -> unit
(** Register the harness callback a [Workload_drift] action invokes
    when it fires: [sink ~shift] should move fraction [shift] of the
    workload's subsequent syscall mix outside its learned profile.
    Without a sink the drift still fires probe-visibly and is counted —
    the workload just doesn't move. *)

val stats : t -> stats
val total_injections : t -> int
val pp_stats : Format.formatter -> stats -> unit
