(** The one retry policy for system calls issued through
    {!Ksurf_env.Env.try_syscall}, shared by varbench ranks
    ({!Harness}) and noise ranks ({!Noise}): a transiently failed call
    (EAGAIN/EINTR) retries with exponential backoff from 1 µs, capped
    at 256 µs, and is abandoned after 10 retries; a denied call (ENOSYS)
    is never retried.  With no fault control installed a call is
    exactly one [try_syscall]. *)

type counters = {
  mutable issued : int;  (** calls that completed *)
  mutable retries : int;  (** injected EAGAIN/EINTR faults retried *)
  mutable abandoned : int;  (** calls given up on after the last retry *)
  mutable denied : int;
      (** calls rejected with ENOSYS by an [Enforce]-mode specialization
          policy (kspec); permanent, never retried *)
}

val counters : unit -> counters
(** All zero. *)

val call :
  counters -> Ksurf_env.Env.t -> rank:int -> Ksurf_syzgen.Program.call -> bool
(** Issue one call from [rank], retrying transient failures, and count
    the outcome.  [true] iff the call completed.  Must run inside a
    simulation process; builds no closure. *)
