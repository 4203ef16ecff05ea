(** Drivers that regenerate every table and figure of the paper.

    Each driver is deterministic given [seed] and returns a structured
    result plus a paper-style textual rendering.  [Quick] scale keeps
    everything under a few seconds for tests and smoke runs; [Full]
    scale is what the benchmark harness uses (minutes, larger corpora
    and sample counts).

    Every sweep-shaped driver takes [?pool]: a {!Ksurf_par.Pool.t} fans
    the sweep's cells across domains.  Cells are self-contained (each
    builds its own engine and PRNG stream from [seed]) and results
    merge in canonical input order, so the parallel run's output —
    tables, CSV exports, stable hashes — is bit-identical to the
    sequential one. *)

type scale = Quick | Full

val scale_of_string : string -> scale option
val default_corpus : ?seed:int -> scale -> Ksurf_syzgen.Corpus.t
(** The syzgen corpus used by every experiment at this scale. *)

(** Table 1: the VM configurations of the surface-area study. *)
module Table1 : sig
  type t = (int * Ksurf_env.Partition.t) list

  val run : unit -> t
  val pp : Format.formatter -> t -> unit
end

(** Table 2: latency breakdown — native vs 64 1-core VMs vs 64 1-core
    containers. *)
module Table2 : sig
  type row = {
    env : string;
    median : Ksurf_stats.Buckets.row;
    p99 : Ksurf_stats.Buckets.row;
    max : Ksurf_stats.Buckets.row;
  }

  type t = {
    rows : row list;
    corpus_calls : int;  (** unique call sites in the corpus *)
    invocations_per_env : int;
  }

  val run :
    ?seed:int -> ?scale:scale -> ?corpus:Ksurf_syzgen.Corpus.t -> ?pool:Ksurf_par.Pool.t -> unit -> t

  val pp : Format.formatter -> t -> unit
end

(** Figure 2: per-category p99 violins across the Table 1 VM sweep. *)
module Fig2 : sig
  type cell = {
    vms : int;
    category : Ksurf_kernel.Category.t;
    violin : Ksurf_stats.Violin.t option;  (** [None]: no surviving sites *)
  }

  type t = {
    cells : cell list;
    filtered_sites : int;  (** sites passing the 10 µs native-median filter *)
    total_sites : int;
  }

  val run :
    ?seed:int -> ?scale:scale -> ?corpus:Ksurf_syzgen.Corpus.t ->
    ?kernel_config:Ksurf_kernel.Config.t -> ?pool:Ksurf_par.Pool.t ->
    unit -> t

  val pp : Format.formatter -> t -> unit
  (** Numeric violin table per category plus ASCII violins. *)
end

(** Table 3: worst-case breakdown across Docker container counts. *)
module Table3 : sig
  type row = { containers : int; max : Ksurf_stats.Buckets.row }

  type t = { rows : row list }

  val run :
    ?seed:int -> ?scale:scale -> ?corpus:Ksurf_syzgen.Corpus.t -> ?pool:Ksurf_par.Pool.t -> unit -> t

  val pp : Format.formatter -> t -> unit
end

(** Figure 3: single-node tailbench p99, isolated and contended. *)
module Fig3 : sig
  type t = {
    cells : Ksurf_tailbench.Runner.result list;
        (** 8 apps x {kvm,docker} x {isolated,contended} *)
  }

  val run :
    ?seed:int -> ?scale:scale -> ?corpus:Ksurf_syzgen.Corpus.t ->
    ?apps:Ksurf_tailbench.Apps.t list -> ?pool:Ksurf_par.Pool.t -> unit -> t

  val cell : t -> app:string -> kind:string -> contended:bool ->
    Ksurf_tailbench.Runner.result option

  val pp : Format.formatter -> t -> unit
  (** Renders (a) isolated p99s, (b) contended p99s, (c) %% increase. *)
end

(** Figure 4: 64-node BSP runtimes. *)
module Fig4 : sig
  type t = { cells : Ksurf_cluster.Cluster.result list }

  val paper_apps : string list
  (** xapian, masstree, moses, sphinx, img-dnn, silo — no shore (no SSDs
      on the cluster nodes) or specjbb (Java runtime failures), as in
      the paper. *)

  val run :
    ?seed:int -> ?scale:scale -> ?corpus:Ksurf_syzgen.Corpus.t ->
    ?apps:Ksurf_tailbench.Apps.t list -> ?pool:Ksurf_par.Pool.t -> unit -> t

  val cell : t -> app:string -> kind:string -> contended:bool ->
    Ksurf_cluster.Cluster.result option

  val pp : Format.formatter -> t -> unit
end

(** E7 ablation: which modeled mechanism produces the native tails. *)
module Ablate : sig
  type row = {
    variant : string;
    p99 : Ksurf_stats.Buckets.row;
    max : Ksurf_stats.Buckets.row;
  }

  type t = { rows : row list }

  val run :
    ?seed:int -> ?scale:scale -> ?corpus:Ksurf_syzgen.Corpus.t -> ?pool:Ksurf_par.Pool.t -> unit -> t
  (** Native 64-rank varbench under: default, no background daemons, no
      TLB shootdowns, no timer noise, all off. *)

  val pp : Format.formatter -> t -> unit
end

(** E9 extension (the paper's future work, §2): the Table-2 comparison
    repeated for lightweight-VM technologies — Firecracker, Kata, Nabla
    presets from {!Ksurf_virt.Lightweight} — next to native, Docker and
    stock KVM, all as 64 single-core isolation units. *)
module Lwvm : sig
  type row = {
    env : string;
    median : Ksurf_stats.Buckets.row;
    p99 : Ksurf_stats.Buckets.row;
    max : Ksurf_stats.Buckets.row;
  }

  type t = { rows : row list }

  val run :
    ?seed:int -> ?scale:scale -> ?corpus:Ksurf_syzgen.Corpus.t -> ?pool:Ksurf_par.Pool.t -> unit -> t

  val pp : Format.formatter -> t -> unit
end

(** E10 diagnostic: attribute contention to specific kernel locks (the
    §3.3 discussion, made measurable).  Runs the corpus natively and on
    two VM partitions and reports, per kernel lock, how often it was
    contended and how long waiters waited. *)
module Locks : sig
  type row = {
    env : string;
    lock : string;
    acquisitions : int;
    contended_pct : float;
    mean_wait_ns : float;
    max_wait_ns : float;
  }

  type t = { rows : row list }

  val run :
    ?seed:int -> ?scale:scale -> ?corpus:Ksurf_syzgen.Corpus.t -> ?pool:Ksurf_par.Pool.t -> unit -> t

  val pp : Format.formatter -> t -> unit
  (** Sorted by contention within each environment; quiet locks
      (contention < 0.1%%) are omitted. *)
end

(** E8 ablation: Figure 4 contended KVM cells as virtualisation hardware
    improves (exit costs scaled down). *)
module Ablate_virt : sig
  type row = {
    app : string;
    exit_scale : float;
    kvm_runtime_ns : float;
    docker_runtime_ns : float;  (** unscaled docker reference *)
  }

  type t = { rows : row list }

  val run :
    ?seed:int -> ?scale:scale -> ?corpus:Ksurf_syzgen.Corpus.t ->
    ?apps:Ksurf_tailbench.Apps.t list -> ?pool:Ksurf_par.Pool.t -> unit -> t

  val pp : Format.formatter -> t -> unit
end

(** Dose–response study: sweep a fault plan's intensity across
    environments and measure each environment's p99/CoV sensitivity.
    The shared-kernel environments amplify injected contention (a
    stretched critical section queues every rank behind it), so native
    p99 degrades faster with dose than the partitioned kvm-64. *)
module Dose : sig
  type cell = {
    env : string;
    intensity : float;  (** {!Ksurf_fault.Plan.scale} factor *)
    p99 : float;  (** ns, over every measured call site sample *)
    cov : float;  (** coefficient of variation of the same samples *)
    injections : int;  (** total fault firings (kfault counters) *)
    retries : int;  (** transient failures the harness retried *)
    degraded : bool;
    survivors : int;
  }

  type t = { plan_name : string; cells : cell list }

  val default_intensities : float list
  (** [0; 0.5; 1; 2] — zero dose is the per-environment baseline. *)

  val run :
    ?seed:int -> ?scale:scale -> ?corpus:Ksurf_syzgen.Corpus.t ->
    ?plan:Ksurf_fault.Plan.t -> ?intensities:float list ->
    ?journal:Ksurf_recov.Journal.t -> ?pool:Ksurf_par.Pool.t -> unit -> t
  (** One varbench run per (environment x intensity) cell; [plan]
      defaults to the ["mixed"] preset (every mechanism, no crashes).
      With [journal], cells already recorded (keys
      [dose:<env>:<intensity>]) are skipped and omitted from the result;
      each completed cell is journalled as it completes (persisted in
      batches, flushed when the sweep ends). *)

  val cell : t -> env:string -> intensity:float -> cell option

  val degradation : t -> env:string -> (float * float) list
  (** [(intensity, p99 / baseline p99)] pairs for one environment. *)

  val pp : Format.formatter -> t -> unit
end

(** Specialization study (kspec): can a profile-derived kernel recover
    part of KVM's variability reduction without partitioning?  The
    workload is the default corpus restricted to File_io + Fs_mgmt
    calls; its profile compiles to an allowlist plus a pruned kernel
    (kswapd, load balancer, timer tick and TLB machinery off; jbd2
    retained).  The same workload then runs on a stock shared native
    kernel, on the specialized shared native kernel (allowlist
    enforced on all 64 ranks), and on 64 single-core KVM VMs. *)
module Specialize : sig
  type row = {
    env : string;
    p50 : float;  (** ns, over every measured sample *)
    p99 : float;  (** ns *)
    tail_ratio : float;
        (** p99/p50 over the per-site statistics the bucket metric is
            built from: the fleet's median per-site p99 divided by its
            median per-site p50.  Per-site, because each site repeats
            one identical call — raw-sample quantile ratios would
            conflate jitter with workload heterogeneity. *)
    p99_bucket : Ksurf_stats.Buckets.row;
    max_bucket : Ksurf_stats.Buckets.row;
    denials : int;  (** policy denials (0 in this study: exact profile) *)
    surface_area : float;
        (** mean {!Ksurf_env.Env.surface_area_of_rank} over ranks *)
  }

  type t = {
    spec : Ksurf_spec.Spec.t;
    rows : row list;
        (** [native-64] (one shared kernel), [native-64-kspec]
            (per-tenant specialized kernels: {!Ksurf_env.Env.Multikernel}
            with the profile-pruned config and the allowlist installed),
            [kvm-64]. *)
    corpus_calls : int;
  }

  val retained : Ksurf_kernel.Category.t list
  (** The categories the study keeps: File_io, Fs_mgmt. *)

  val workload :
    ?seed:int -> ?scale:scale -> ?corpus:Ksurf_syzgen.Corpus.t -> unit ->
    Ksurf_syzgen.Corpus.t
  (** The restricted corpus ({!Ksurf_spec.Profile.restrict} to
      {!retained}; falls back to the full corpus if nothing survives). *)

  val run :
    ?seed:int -> ?scale:scale -> ?corpus:Ksurf_syzgen.Corpus.t ->
    ?journal:Ksurf_recov.Journal.t -> ?pool:Ksurf_par.Pool.t -> unit -> t
  (** With [journal], environments already recorded (keys
      [specialize:<env>]) are skipped and omitted from the result. *)

  val row : t -> env:string -> row option
  val pp : Format.formatter -> t -> unit
end

(** Recovery study (krecov): crash rate x recovery policy on the 64-node
    BSP synthesis.  One set of node simulations feeds an empirical
    iteration pool ({!Ksurf_cluster.Cluster.pool}); the supervised
    superstep-by-superstep re-synthesis
    ({!Ksurf_recov.Supervisor.run}) then sweeps every recovery policy
    across per-rank per-superstep crash probabilities, measuring how
    much runtime each policy pays to survive each crash rate. *)
module Recover : sig
  type cell = {
    policy : string;
    crash_rate : float;
    runtime_ns : float;
    straggler_factor : float;
    supersteps : int;
    survivors : int;
    degraded : bool;
    crashes : int;
    restarts : int;
    backups : int;
    deaths : int;
    transitions : int;  (** rank-transition probe events emitted *)
    checkpoints : int;
  }

  type t = {
    nodes : int;
    iterations : int;  (** supersteps per supervised run *)
    pool_mean_ns : float;  (** mean of the shared iteration pool *)
    cells : cell list;
  }

  val default_rates : float list
  (** [0; 0.005; 0.01; 0.02] — zero is each policy's baseline. *)

  val policies : Ksurf_recov.Supervisor.policy list
  (** Survivors, Readmit, Speculative ([Disabled] wedges by design and
      is exercised by the watchdog tests instead). *)

  val run :
    ?seed:int -> ?scale:scale -> ?corpus:Ksurf_syzgen.Corpus.t ->
    ?app:Ksurf_tailbench.Apps.t -> ?rates:float list ->
    ?journal:Ksurf_recov.Journal.t -> ?pool:Ksurf_par.Pool.t -> unit -> t
  (** [app] defaults to silo on isolated kvm-64.  With [journal], cells
      already recorded (keys [recover:<policy>:<rate>]) are skipped and
      omitted from the result. *)

  val cell : t -> policy:string -> crash_rate:float -> cell option

  val overhead : t -> policy:string -> (float * float) list
  (** [(crash_rate, runtime / crash-free runtime)] for one policy. *)

  val pp : Format.formatter -> t -> unit
end

(** Fleet tenancy study (ktenant): hundreds of churning tenants on
    shared or private kernels, with per-tenant p99 SLO autoscaling.
    The headline is the SLO frontier: for each placement policy, the
    largest (tenant count, churn rate) cell whose per-tenant SLO
    attainment stays above a floor. *)
module Tenancy : sig
  type cell = Ksurf_tenant.Fleet.result

  type t = { slo_ns : float; cells : cell list }

  val default_policies : Ksurf_tenant.Policy.t list
  (** All five: native-shared, docker, kvm, multikernel, adaptive. *)

  val default_tenants : scale -> int list
  val default_churns : scale -> float list

  val fleet_config :
    seed:int -> scale:scale -> policy:Ksurf_tenant.Policy.t ->
    tenants:int -> churn:float -> Ksurf_tenant.Fleet.config
  (** The per-cell fleet shape: [scale] only sets the virtual day
      length (cheap quick days, full-length full days). *)

  val run :
    ?seed:int -> ?scale:scale -> ?tenants:int list -> ?churns:float list ->
    ?policies:Ksurf_tenant.Policy.t list -> ?journal:Ksurf_recov.Journal.t ->
    ?pool:Ksurf_par.Pool.t -> unit -> t
  (** One fleet simulation per (policy x tenants x churn) cell through
      the kpar sweep.  With [journal], cells already recorded (keys
      [tenancy:<policy>:<tenants>:<churn>]) are skipped and omitted
      from the result. *)

  val cell_key : Ksurf_tenant.Policy.t * int * float -> string
  (** Journal key for one sweep cell:
      [tenancy:<policy>:<tenants>:<churn>]. *)

  val cell : t -> policy:string -> tenants:int -> churn:float -> cell option

  val frontier :
    ?floor:float -> t -> (string * cell option) list
  (** Per policy, the largest cell (by tenants, then churn) attaining
      the SLO for at least [floor] (default 0.95) of measured tenants;
      [None] if no cell qualifies.  Cells with [measured = 0] carry no
      verdict and are excluded — their reported attainment of 0 is
      no-data, not a failing policy. *)

  val pp : Format.formatter -> t -> unit
end

module Drift : sig
  type cell = Ksurf_adapt.Driftbench.result

  type t = { cells : cell list }

  val default_doses : float list
  (** [0; 1; 2; 3] — dose 0 is the no-drift control. *)

  val default_policies : Ksurf_adapt.Driftbench.policy list
  (** static-enforce, audit-only, adaptive. *)

  val cell_config :
    seed:int -> scale:scale -> policy:Ksurf_adapt.Driftbench.policy ->
    dose:float -> Ksurf_adapt.Driftbench.config
  (** The per-cell harness shape: [scale] sets epochs and programs per
      epoch (the question — fp ENOSYS vs retained surface vs
      reconvergence — is the same at both). *)

  val run :
    ?seed:int -> ?scale:scale -> ?doses:float list ->
    ?policies:Ksurf_adapt.Driftbench.policy list ->
    ?journal:Ksurf_recov.Journal.t -> ?pool:Ksurf_par.Pool.t -> unit -> t
  (** One {!Ksurf_adapt.Driftbench} run per (policy x dose) cell through
      the kpar sweep.  With [journal], cells already recorded (keys
      [drift:<policy>:<dose>]) are skipped and omitted from the
      result. *)

  val cell_key : Ksurf_adapt.Driftbench.policy * float -> string
  (** Journal key for one sweep cell: [drift:<policy>:<dose>]. *)

  val cell : t -> policy:string -> dose:float -> cell option

  val pp : Format.formatter -> t -> unit
end

module Torture : sig
  type cell = Ksurf_dur.Torture.result

  type t = { cells : cell list }

  val default_doses : float list
  (** [0; 1; 2; 3] — dose 0 is the fault-free control. *)

  val default_kinds : Ksurf_dur.Torture.kind list
  (** journal, checkpoint, export — every durable writer path. *)

  val default_scratch : string
  (** [$TMPDIR/ksurf-torture]; pass a private [scratch] when several
      torture processes may run concurrently. *)

  val cell_config :
    seed:int -> scale:scale -> scratch:string ->
    kind:Ksurf_dur.Torture.kind -> dose:float -> Ksurf_dur.Torture.config
  (** The per-cell harness shape: [scale] sets the live-run budget
      (enumeration covers every crash point at either scale). *)

  val run :
    ?seed:int -> ?scale:scale -> ?doses:float list ->
    ?kinds:Ksurf_dur.Torture.kind list -> ?scratch:string ->
    ?journal:Ksurf_recov.Journal.t -> ?pool:Ksurf_par.Pool.t -> unit -> t
  (** One {!Ksurf_dur.Torture} cell per (kind x dose) through the kpar
      sweep.  With [journal], cells already recorded (keys
      [torture:<kind>:<dose>]) are skipped and omitted from the
      result. *)

  val cell_key : Ksurf_dur.Torture.kind * float -> string
  (** Journal key for one sweep cell: [torture:<kind>:<dose>]. *)

  val cell : t -> kind:string -> dose:float -> cell option

  val violations : t -> int
  (** Total consistency violations across all cells; 0 required. *)

  val pp : Format.formatter -> t -> unit
end

(** One regenerable table or figure.  [render] runs the driver and
    prints its rendering followed by a newline; [corpus] is forced only
    by drivers that replay it, so callers share one lazily generated
    {!default_corpus} across entries. *)
type table = {
  name : string;  (** the [ksurf_cli] subcommand and bench selector *)
  doc : string;
  render :
    seed:int ->
    scale:scale ->
    corpus:Ksurf_syzgen.Corpus.t Lazy.t ->
    pool:Ksurf_par.Pool.t ->
    Format.formatter ->
    unit;
}

val tables : table list
(** Every table, in regeneration order: table1, table2, fig2, table3,
    fig3, fig4, ablate, ablate-virt, lwvm, locks, dose, specialize.
    [ksurf_cli all] and [bench/main.exe] iterate this list. *)
