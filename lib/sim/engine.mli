(** The discrete-event simulation engine.

    Processes are ordinary OCaml functions executed under an effect
    handler.  Inside a process, {!delay} advances virtual time and
    {!suspend} parks the process until an external wake; everything else
    is plain code.  The engine is single-domain and fully deterministic:
    events at equal times fire in creation order, and all randomness
    flows through the engine's {!Ksurf_util.Prng.t} streams.

    Typical use:
    {[
      let eng = Engine.create ~seed:42 () in
      Engine.spawn eng (fun () ->
        Engine.delay 100.0;
        Format.printf "woke at %f@." (Engine.now eng));
      Engine.run eng
    ]} *)

type t

(** Probe events, in engine order.  Emitted only while at least one
    probe is registered (see {!add_probe}); the instrumented hot paths
    are otherwise untouched.  [pid] identifies the simulated process
    (0 outside any process), [token] a single suspension.

    The five frequent kinds have mutable fields: each engine emits them
    through one block per kind that every emit of that kind overwrites
    (see {!add_probe}).  Only the engine writes them. *)
type event_info =
  | Scheduled of { mutable now : float; mutable at : float; mutable pid : int }
  | Executed of { mutable now : float; mutable pid : int }
  | Suspended of { mutable now : float; mutable pid : int; mutable token : int }
  | Woken of { mutable now : float; mutable pid : int; mutable token : int }
  | Sync of {
      mutable now : float;
      mutable pid : int;
      mutable name : string;
      mutable op : sync_op;
    }
  | Injected of { now : float; pid : int; fault : string; magnitude : float }
      (** A fault injector (kfault) perturbed the simulation.  [fault]
          names the mechanism (e.g. ["syscall-eagain"],
          ["lock-preemption"]), [magnitude] its size in natural units
          (stretch ns, hold multiplier, errno-coded as 0/1, …).  Flows
          through the same probe stream as every other event, so the
          determinism checker hashes injections along with the behaviour
          they cause. *)
  | Denied of { now : float; pid : int; syscall : string; enforced : bool }
      (** A kernel-specialization policy (kspec) rejected [syscall] for
          the calling tenant.  [enforced] is [true] when the call failed
          with ENOSYS (Enforce mode) and [false] when it was only logged
          (Audit mode).  Probe-visible so the determinism checker hashes
          denials and sanitizer scenarios can assert specialized runs
          are violation-free. *)
  | Rank_transition of {
      now : float;
      pid : int;
      rank : int;
      from_state : string;
      to_state : string;
      incident : int;
    }
      (** A failure detector (krecov) reclassified monitored [rank]
          ([from_state] → [to_state], each one of ["alive"], ["suspect"],
          ["dead"]).  [incident] numbers the crash/recovery episode so
          sanitizer scenarios can assert each transition appears exactly
          once per incident. *)

(** Synchronisation-primitive operations, reported by {!Lock},
    {!Rwlock} and {!Barrier} through their engine.  Acquire events are
    emitted at {e intent} time — before any blocking — so deadlocked
    acquisitions still reach the probes.  Each barrier fills one
    reused payload block per barrier kind, so a barrier payload, like
    the event that carries it, lives only for the probe call. *)
and sync_op =
  | Acquire of { contended : bool }
  | Release
  | Read_acquire of { contended : bool }
  | Read_release
  | Write_acquire of { contended : bool }
  | Write_release
  | Barrier_arrive of {
      mutable generation : int;
      mutable arrived : int;
      mutable parties : int;
    }
  | Barrier_release of { mutable generation : int }
  | Barrier_depart of { mutable generation : int; mutable parties : int }
      (** A party permanently left the barrier ({!Barrier.depart});
          [parties] is the new, smaller membership. *)

(** Where a fault-injection acquire hook fired: a {!Lock} or a
    {!Resource} slot. *)
type acquire_site = Lock_site | Resource_site

val create : ?seed:int -> unit -> t
(** Fresh engine at virtual time 0 (nanoseconds by ksurf convention). *)

val add_probe : t -> (event_info -> unit) -> unit
(** Register an observer called synchronously on every {!event_info}.
    Probes must not call back into the engine.  An event lives only
    for the call: the engine overwrites the same [Scheduled],
    [Executed], [Suspended], [Woken] or [Sync] block on the next emit
    of its kind, so a probe may read an event's fields (and keep the
    values it reads) but must not keep the event itself after it
    returns.  A probe that keeps events keeps {!copy_event}s of them,
    as the determinism checker does. *)

val copy_event : event_info -> event_info
(** A fresh event with the same fields, which later emits leave
    alone; a [Sync] event's barrier payload is copied too.  Returns the
    rare kinds ([Injected], [Denied], [Rank_transition]), which are
    immutable, as they are. *)

val observed : t -> bool
(** [true] iff at least one probe is registered — instrumented call
    sites use this to skip event construction entirely. *)

val emit : t -> event_info -> unit
(** Deliver an event to every registered probe (no-op when none).
    Probes see it only for the call, as {!add_probe} says.  Exposed for
    the rare kinds that other layers emit (fault injections, policy
    denials, rank transitions); ordinary code never calls it. *)

val emit_sync : t -> name:string -> sync_op -> unit
(** [emit_sync t ~name op] emits a [Sync] event for primitive [name] at
    the current time, under the current pid, by filling the engine's
    one [Sync] block; no-op when no probe is registered.  How {!Lock},
    {!Rwlock} and {!Barrier} report their operations. *)

val current_pid : t -> int
(** Pid of the currently executing process, or 0 outside processes. *)

val set_acquire_hook : t -> (acquire_site -> string -> unit) option -> unit
(** Install (or clear) the fault-injection acquire hook.  {!Lock} and
    {!Resource} call it in process context immediately after a
    successful acquisition, passing the site kind and the primitive's
    name, so the hook may stretch the critical section with {!delay} —
    lock-holder preemption.  At most one hook; [None] restores the
    zero-cost default. *)

val acquire_hook : t -> (acquire_site -> string -> unit) option
(** The installed hook, consulted by the sync primitives. *)

val now : t -> float
(** The current virtual time.  The clock lives unboxed in {!clock};
    [now] boxes it on its first call after the clock moved and returns
    that same box until the clock moves again, so every reader within
    one event, and within a run of events at the same time, shares
    one box. *)

val clock : t -> float array
(** The engine's clock: a one-element float array whose slot 0 is the
    current virtual time.  Read-only: only the engine's run loop moves
    it, and a caller that writes it corrupts the simulation.  Reading
    [(clock t).(0)] boxes nothing, which is how the sync primitives and
    the kernel stamp their waits and holds; ordinary code calls {!now}. *)

val rng : t -> Ksurf_util.Prng.t
(** The engine's root random stream; components should [Prng.split] it. *)

val spawn : ?at:float -> t -> (unit -> unit) -> unit
(** Schedule a new process.  [at] defaults to the current time; it must
    be finite and not in the past, or [Invalid_argument] is raised. *)

val delay : float -> unit
(** Advance the calling process's virtual time.  A negative, NaN or
    infinite delay raises [Invalid_argument], and so does one whose
    expiry overflows to infinity.  Must be called from inside a
    process.

    When nothing precedes its expiry, the delay finishes without
    yielding: if the expiry moves the clock, lies within the running
    {!run}'s [until] and [deadline], is earlier than every queued
    event, and [run]'s [stop] (polled here as the run loop would poll
    it) is false, the delay does the work the run loop would do for
    that event (the same probe events, sequence number, clock move,
    event count and stall-watchdog reset) and returns to the process.
    Otherwise it yields, and the run loop applies its bounds to it as
    to any event.  Either way the simulation is the same, bit for bit. *)

val delay_cell : t -> float array
(** The engine's one-slot duration cell.  Writing a duration into a
    float array does not box it, so a caller that computes its delay
    writes it here and calls {!delay_from_cell} instead of passing a
    fresh float to {!delay}. *)

val delay_from_cell : t -> unit
(** [delay_from_cell t] is [delay (delay_cell t).(0)]: the same
    validation and the same ambient-engine lookup, so a process of a
    nested engine delays exactly as {!delay} would. *)

val ticket : t -> int
(** The ticket the calling process will park under if it calls {!park}
    next: one immediate int naming a fresh suspension token and a
    parking slot.  Asking takes nothing, so a caller asks, files the
    ticket where its waker will find it (a {!Fifo} wait queue), and
    then calls {!park} with nothing in between.  Tickets are
    non-negative and leave the top bit of an int clear, so a primitive
    may shift one left by a bit to tag it (as {!Rwlock} marks writers). *)

val park : t -> unit
(** Park the calling process under {!ticket}'s ticket until
    {!wake_ticket} wakes it.  The continuation waits in the engine's
    parking table, so parking allocates only what the runtime builds on
    [perform].  Raises [Failure] unless called from a process of this
    engine. *)

val wake_ticket : t -> int -> unit
(** Reschedule the process parked under the ticket at the current
    virtual time, under its own pid.  A ticket wakes once: waking it
    again raises [Failure] (["woken twice"]), also after its slot has
    been reused by another park. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] parks the calling process as {!park} does and
    hands [register] a wake function, a closure over the ticket that
    calls {!wake_ticket}.  Calling it reschedules the process at the
    then-current virtual time; waking twice raises [Failure].  For
    callers that keep a wake as a closure; the sync primitives queue
    tickets instead. *)

val run :
  ?until:float ->
  ?stop:(unit -> bool) ->
  ?deadline:float ->
  ?stall_limit:int ->
  t ->
  unit
(** Drain the event queue (or stop once the next event is later than
    [until]).  [stop] is polled before each event: returning [true]
    halts the run — the way harnesses terminate measurement while
    infinite background daemons still hold queued events.  May be called
    repeatedly as more work is spawned.  [until], [deadline], [stop] and
    the stall watchdog apply to a {!delay} that finishes without
    yielding as to any other event, and [stop] is polled once per
    event either way; an exception [stop] raises while polled from a
    delay escapes as that process's {!Process_error}.

    Liveness watchdog (krecov): [deadline] raises {!Hung} if the next
    event lies beyond that virtual time — unlike [until], which stops
    silently, a deadline overrun is treated as a wedged simulation and
    aborts with a diagnostic naming the parked processes.  [stall_limit]
    raises {!Hung} after more than that many consecutive events execute
    without virtual time advancing (zero-delay wake loops, livelock). *)

val blocked : t -> (int * int * float) list
(** Parked suspensions as [(pid, token, since)] triples, sorted.  A
    process appears here from {!suspend} until its wake fires — the raw
    material of the {!Hung} diagnostic, exposed for supervisors and
    tests. *)

val pending : t -> int
(** Number of queued events, for diagnostics and tests. *)

val events_executed : t -> int
(** Total events fired since creation. *)

exception Process_error of string * exn
(** Wraps an exception escaping a process with a description of when it
    fired. *)

exception Hung of string
(** Raised by {!run} when the liveness watchdog trips ([deadline] or
    [stall_limit]).  The payload is a human-readable diagnostic: virtual
    time, why the watchdog fired, pending-event count, and the parked
    processes that will never run again. *)
