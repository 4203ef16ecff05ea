(** Request execution: what one tailbench request does to the system.

    A request is received over the loopback socket, burns the app's user
    CPU (split around its kernel calls), issues the app's kernel-call
    mix against the environment, performs its per-request I/O calls, and
    sends the reply.  Under KVM, user CPU is dilated by the app's
    [virt_cpu_penalty] (cache/TLB pollution from exits). *)

type compiled
(** An app's mix resolved against the syscall table. *)

val compile : Apps.t -> compiled
(** Raises [Invalid_argument] if the mix or the I/O calls reference
    unknown calls.  Each call is {!Ksurf_syscalls.Spec.covering} every
    argument {!handle} can issue to it (the model's sizes and the sizes
    a request puts in their place, objects below 64, the model's
    flags), so a request rebuilds no op program. *)

val app : compiled -> Apps.t

val specs : compiled -> Ksurf_syscalls.Spec.t list
(** Every call a request can issue, once each, sorted by name. *)

val handle :
  compiled ->
  env:Ksurf_env.Env.t ->
  rank:int ->
  rng:Ksurf_util.Prng.t ->
  ?hw_dilation:float ->
  unit ->
  unit
(** Execute one request on [rank].  Must run inside a simulation
    process.  Virtual time advances by the full service time including
    any kernel queueing.  [hw_dilation] (default 1.0) multiplies the
    user-CPU portion: residual hardware interference (LLC, memory
    bandwidth) from co-located workloads, present in {e every}
    environment kind because it is below the kernel. *)

val estimate_native_service : compiled -> float
(** {!Apps.mean_service_estimate} of the compiled app. *)
