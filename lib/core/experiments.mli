(** Drivers that regenerate every table and figure of the paper.

    Every driver has one shape: [run] takes the grid arguments a caller
    may narrow (apps, intensities), then a {!context}, and returns a
    structured result.  One column list per study ({!columns}) declares
    both the CSV it exports and the table it prints; [pp] builds the
    paper-style rendering around that table.  Each driver is
    deterministic given the seed.
    [Quick] scale keeps everything under a few seconds for tests and
    smoke runs; [Full] scale is what the committed [exports/] baselines
    pin.

    With a pool, a driver fans its sweep's cells across domains.  Cells
    are self-contained (each builds its own engine and PRNG stream from
    the seed) and results merge in canonical input order, so the
    parallel run's output — tables, CSV exports, stable hashes — is
    bit-identical to the sequential one. *)

type scale = Quick | Full

val scale_of_string : string -> scale option
val default_corpus : ?seed:int -> scale -> Ksurf_syzgen.Corpus.t
(** The syzgen corpus used by every experiment at this scale. *)

(** What every driver runs under. *)
type context = {
  seed : int;
  scale : scale;
  corpus : Ksurf_syzgen.Corpus.t Lazy.t;
      (** forced only by drivers that replay it, before they fan out *)
  pool : Ksurf_par.Pool.t option;
}

val context :
  ?seed:int -> ?corpus:Ksurf_syzgen.Corpus.t Lazy.t -> ?pool:Ksurf_par.Pool.t ->
  scale -> context
(** [seed] defaults to 42 and [corpus] to {!default_corpus} at that
    seed and scale, generated on first use. *)

(** A CSV file as data: the exact text {!write_csv} writes. *)
type csv = { file : string; header : string list; rows : string list list }

type 't columns
(** A study's column list over its result ['t]: each column has a CSV
    side, a stdout side, or both; the list may name a CSV file. *)

val csvs : 't columns -> 't -> csv list
(** The result's CSV files: one, or none when the list names no file. *)

val write_csv : dir:string -> csv -> string
(** The one CSV writer: [dir/file] through {!Ksurf_report.Csv.write},
    creating [dir] if missing.  Returns the path. *)

(** What one run of a study hands back. *)
type outcome = {
  render : Format.formatter -> unit;  (** the paper-style rendering *)
  csvs : csv list;  (** the result's CSV files, as data *)
}

(** One regenerable table, figure or study: a [ksurf_cli] subcommand
    and an entry of [ksurf_cli all]. *)
type study = {
  name : string;  (** the subcommand *)
  doc : string;
  exports : unit -> (string * string list) list;
      (** each CSV [run] writes: file and header, known without running *)
  run : context -> outcome;
}

(** Table 1: the VM configurations of the surface-area study. *)
module Table1 : sig
  type t = (int * Ksurf_env.Partition.t) list

  val run : context -> t
  val pp : Format.formatter -> t -> unit
end

(** A latency breakdown: varbench over a list of deployments, each call
    site's statistic (median, p99 or max over ranks and iterations)
    bucketed by latency, one row per (deployment, statistic). *)
module Breakdown : sig
  type deployment = {
    label : string;
    kind : Ksurf_env.Env.kind;
    units : int;  (** isolation units: the {!Ksurf_env.Partition.table1} row *)
    kernel_config : Ksurf_kernel.Config.t option;
  }

  type table = {
    file : string;  (** the CSV file name *)
    title : t -> string;
    label_header : string * string;
        (** the label column's header in the rendering and in the CSV *)
    stats : Ksurf_varbench.Study.statistic list;
    deployments : deployment list;
  }

  and t = {
    table : table;
    rows :
      (string * (Ksurf_varbench.Study.statistic * Ksurf_stats.Buckets.row) list)
      list;  (** per deployment label, one bucket row per statistic *)
    corpus_calls : int;  (** unique call sites in the corpus *)
    invocations : int;  (** invocations per deployment *)
  }

  val table2 : table
  (** Table 2: native vs 64 1-core VMs vs 64 1-core containers, by
      median, p99 and max. *)

  val table3 : table
  (** Table 3: the max across Docker container counts. *)

  val ablate : table
  (** E7: native 64-rank varbench by p99 and max under default, no
      background daemons, no TLB shootdowns, no timer noise, all off. *)

  val lwvm : table
  (** E9, the paper's future work (§2): Table 2 repeated for native,
      Docker and the {!Ksurf_virt.Lightweight} presets (stock KVM,
      Firecracker, Kata, Nabla, gVisor), all as 64 single-core
      isolation units. *)

  val run : table -> context -> t

  val columns : table -> t columns
  (** [<file>]: one row per (deployment, statistic).  Stdout shows the
      stat column only when the table has more than one statistic. *)

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

  val run : context -> t

  val pp : Format.formatter -> t -> unit
  (** Numeric violin table per category plus ASCII violins. *)
end

(** Figure 3: single-node tailbench p99, isolated and contended. *)
module Fig3 : sig
  type t = {
    cells : Ksurf_tailbench.Runner.result list;
        (** apps x {kvm,docker} x {isolated,contended} *)
  }

  val run : ?apps:Ksurf_tailbench.Apps.t list -> context -> t
  (** [apps] defaults to all eight. *)

  val cell : t -> app:string -> kind:string -> contended:bool ->
    Ksurf_tailbench.Runner.result option

  val pp : Format.formatter -> t -> unit
  (** Renders (a) isolated p99s, (b) contended p99s, (c) %% increase. *)

  val columns : t columns
  (** [fig3.csv]: one row per (app, kind, contended) cell. *)
end

(** Figure 4: 64-node BSP runtimes over the same grid as Figure 3. *)
module Fig4 : sig
  type t = { cells : Ksurf_cluster.Cluster.result list }

  val paper_apps : string list
  (** xapian, masstree, moses, sphinx, img-dnn, silo — no shore (no SSDs
      on the cluster nodes) or specjbb (Java runtime failures), as in
      the paper. *)

  val run : ?apps:Ksurf_tailbench.Apps.t list -> context -> t
  (** [apps] defaults to {!paper_apps}. *)

  val cell : t -> app:string -> kind:string -> contended:bool ->
    Ksurf_cluster.Cluster.result option

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

  val run : context -> t

  val pp : Format.formatter -> t -> unit
  (** Sorted by contention within each environment; quiet locks
      (contention < 0.1%%) are omitted.  [locks.csv] carries every
      lock. *)
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

  val run : ?apps:Ksurf_tailbench.Apps.t list -> context -> t
  (** [apps] defaults to silo and sphinx. *)

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

  val run : ?intensities:float list -> context -> t
  (** One varbench run per (environment x intensity) cell under the
      ["mixed"] fault preset (every mechanism, no crashes), at
      intensities 0, 0.5, 1 and 2 by default (zero dose is each
      environment's baseline). *)

  val cell : t -> env:string -> intensity:float -> cell option

  val degradation : t -> env:string -> (float * float) list
  (** [(intensity, p99 / baseline p99)] pairs for one environment. *)

  val pp : Format.formatter -> t -> unit

  val columns : t columns
  (** [dose.csv]: one row per (environment, intensity) cell, stamped
      with the degraded flag and survivor count. *)
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

  val workload : context -> Ksurf_syzgen.Corpus.t
  (** The context's corpus restricted ({!Ksurf_spec.Profile.restrict} to
      {!retained}; falls back to the full corpus if nothing survives). *)

  val run : context -> t

  val row : t -> env:string -> row option
  val pp : Format.formatter -> t -> unit
end

val studies : study list
(** Every entry, in regeneration order: table1, table2, fig2, table3,
    fig3, fig4, ablate, ablate-virt, lwvm, locks, dose, specialize.
    Each is a [ksurf_cli] subcommand, and [ksurf_cli all] runs them in
    this order. *)
