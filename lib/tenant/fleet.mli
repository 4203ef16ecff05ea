(** ktenant: a rack of hosts serving a churning multi-tenant fleet.

    Tenants share a handful of 64-core host kernels as Docker
    containers, or sit behind private KVM guests, depending on policy.
    Each tenant is an open-loop diurnal client
    ({!Workload}) served by an autoscaled pool of replica processes;
    tenant churn executes the cgroup create/destroy storms of
    {!Ksurf_kernel.Instance.cgroup_create} on the shared hosts, so the
    probes (lockdep, ksan, the interference matrix) see lifecycle
    traffic exactly like syscall traffic.

    Measurement is streaming end-to-end: per-tenant and fleet-wide
    latency statistics live in {!Ksurf_stats.Streamstat} /
    {!Ksurf_stats.P2_quantile} accumulators and no sample array is ever
    materialized — memory stays flat from 10^5 to 10^6 requests.

    Determinism: everything derives from [config.seed] through split
    PRNG streams, so a run is bit-identical across repetitions and
    across sweep worker counts. *)

type config = {
  tenants : int;  (** initial (and steady-state) tenant population *)
  churn_per_day : float;
      (** expected replacements per tenant per diurnal day; 0 disables
          the churn process entirely *)
  policy : Policy.t;
  seed : int;
  host_cores : int;
      (** cores of each shared-kernel host; there is one 256 GB host
          per 128 tenant slots *)
  day_ns : float;  (** virtual length of one diurnal period *)
  days : float;  (** run length in days *)
  warmup_fraction : float;  (** leading fraction excluded from stats *)
  mean_rate_per_s : float;  (** fleet-mean per-tenant request rate *)
  epoch_ns : float;  (** SLO control-loop period *)
  slo_ns : float;
      (** per-tenant p99 latency target.  A violating tenant scales out
          to at most 4 replicas.  Epochs with fewer than 8 samples and
          tenants with fewer than 20 are not judged. *)
  request_target : int option;
      (** stop once this many requests completed (bench ladders);
          [None] runs to [days * day_ns] *)
}

val default_config : config
(** 128 tenants, 4 replacements/tenant/day, Docker placement, one
    2-virtual-second day on one 64-core host, 250 us p99 SLO.  Hosts
    and KVM guests run the stock kernel. *)

type result = {
  policy : string;
  tenants : int;
  churn_per_day : float;
  completed : int;  (** requests served (including warmup) *)
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;  (** fleet-wide post-warmup latency summary (ns) *)
  slo_ns : float;
  measured : int;  (** tenants with enough samples to judge *)
  slo_met : int;  (** of those, lifetime p99 within SLO *)
  attainment : float;
      (** slo_met / measured.  Reported as 0 when [measured = 0], but
          that case is no-data, not failure: a consumer must gate on
          [measured > 0] rather than read the 0 as a failing policy. *)
  epoch_violations : int;
  arrivals : int;  (** tenants ever admitted, the initial population included *)
  departures : int;
  cgroup_creates : int;
  cgroup_destroys : int;
  migrations : int;  (** always 0: a tenant keeps its placement *)
  scale_ups : int;
  scale_downs : int;
  replica_imbalance : int;
      (** autoscaler soundness check, always 0: end-of-run sum over live
          tenants of |serving replicas - unconsumed retire tokens -
          target_replicas|.  Nonzero would mean a scale-up failed to add
          capacity (the retire-by-id bug) or a retirement leaked. *)
  peak_cgroups : int;  (** max live cgroups across all hosts *)
  final_native : int;  (** always 0: no policy places a tenant native *)
  final_docker : int;
  final_kvm : int;  (** live tenants per placement class at the end *)
  final_mk : int;  (** always 0: no policy places a tenant on a multikernel *)
  virtual_ns : float;
}

val run :
  ?on_engine:(Ksurf_sim.Engine.t -> unit) -> config -> result
(** Simulate the fleet.  [on_engine] runs on the freshly created engine
    before anything is booted — the hook sanitizer scenarios use to
    attach probes. *)
