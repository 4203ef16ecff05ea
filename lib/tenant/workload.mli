(** Per-tenant open-loop workload model (ktenant).

    Each tenant is an independent open-loop client: requests arrive by
    a non-homogeneous Poisson process whose rate follows a diurnal
    sinusoid (every tenant gets its own mean rate, swing and phase)
    multiplied through any active flash-crowd window.  All randomness
    derives from the PRNG handed to {!make}, so a tenant's entire
    arrival and request stream is a pure function of the fleet seed and
    the tenant's identity. *)

type flash = { from_ns : float; until_ns : float; boost : float }

type profile = {
  base_rate : float;  (** mean requests per ns at the diurnal midpoint *)
  amplitude : float;  (** diurnal swing, 0..1 *)
  phase : float;  (** phase offset as a fraction of a day *)
  flashes : flash list;
  mix : Ksurf_syscalls.Spec.t array;
      (** the RPC-service syscall mix every tenant draws from: file
          reads and writes, metadata lookups, open/close pairs, socket
          send/receive *)
  key_space : int;  (** object-identity space for lock striping *)
}

val make :
  rng:Ksurf_util.Prng.t ->
  day_ns:float ->
  horizon_ns:float ->
  mean_rate_per_s:float ->
  profile
(** Draw a tenant's profile for a diurnal period of [day_ns].  Its mean
    rate is within +-60% of the fleet mean [mean_rate_per_s] (req/s),
    and it has up to two flash crowds of up to 6x, inside
    [horizon_ns].  Consumes only [rng]. *)

val rate_at : profile -> day_ns:float -> float -> float
(** Instantaneous arrival rate (req/ns) at a virtual time. *)

val next_gap : profile -> day_ns:float -> Ksurf_util.Prng.t -> now:float -> float
(** Sample the next inter-arrival gap at the rate in effect [now]. *)

val pick_request :
  profile -> Ksurf_util.Prng.t ->
  Ksurf_syscalls.Spec.t * Ksurf_syscalls.Arg.t * int
(** Draw one request: a syscall from the mix, a generated argument, and
    an object key for lock striping. *)
