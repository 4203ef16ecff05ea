(** Umbrella module: one import for the whole library.

    [open Ksurf] (or [module K = Ksurf]) gives access to every layer:

    - {!Prng}, {!Dist}, {!Stats} — deterministic randomness & statistics
    - {!Engine}, {!Lock}, {!Rwlock}, {!Resource}, {!Barrier}, {!Mailbox}
      — the discrete-event simulation core
    - {!Kernel_config}, {!Instance}, {!Kernel}, {!Ops}, {!Category} —
      the Linux-like kernel model
    - {!Syscalls}, {!Spec}, {!Arg} — the modeled system-call table
    - {!Program}, {!Corpus}, {!Generator}, {!Coverage} — coverage-guided
      workload generation (the Syzkaller substitute)
    - {!Vm}, {!Virt_config}, {!Container} — isolation
      substrates
    - {!Machine}, {!Partition}, {!Env} — deployments and surface-area
      partitioning
    - {!Harness}, {!Study}, {!Noise}, {!Retry} — the varbench measurement
      harness
    - {!Profile}, {!Kspec}, {!Specializer} — profile-guided kernel
      specialization (see [ksurf_cli specialize])
    - {!Analysis} — opt-in sanitizers: lockdep, determinism checker,
      engine invariants
    - {!Gates} — the gate list every sanitized check runs through (see
      [ksurf_cli analyze])
    - {!Fault_plan}, {!Kfault} — deterministic fault injection (see
      [ksurf_cli inject])
    - {!Recov_journal} — the checksummed journal of completed cells
    - {!Apps}, {!Service}, {!Runner}, {!Cluster} — tailbench workloads,
      single-node and 64-node experiments
    - {!Experiments} — drivers that regenerate every table, figure and
      study, each with one column list for its CSV and its table, and
      the [studies] list behind [ksurf_cli all]
    - {!Report} — terminal rendering *)

module Prng = Ksurf_util.Prng
module Dist = Ksurf_util.Dist
module Welford = Ksurf_util.Welford
module Stable_hash = Ksurf_util.Stable_hash

module Quantile = Ksurf_stats.Quantile
module Buckets = Ksurf_stats.Buckets
module Kde = Ksurf_stats.Kde
module Violin = Ksurf_stats.Violin
module P2_quantile = Ksurf_stats.P2_quantile
module Streamstat = Ksurf_stats.Streamstat

module Engine = Ksurf_sim.Engine
module Lock = Ksurf_sim.Lock
module Rwlock = Ksurf_sim.Rwlock
module Resource = Ksurf_sim.Resource
module Barrier = Ksurf_sim.Barrier
module Mailbox = Ksurf_sim.Mailbox

module Category = Ksurf_kernel.Category
module Kernel_config = Ksurf_kernel.Config
module Ops = Ksurf_kernel.Ops
module Caches = Ksurf_kernel.Caches
module Instance = Ksurf_kernel.Instance
module Background = Ksurf_kernel.Background
module Kernel = Ksurf_kernel.Kernel

module Arg = Ksurf_syscalls.Arg
module Spec = Ksurf_syscalls.Spec
module Syscalls = Ksurf_syscalls.Syscalls

module Program = Ksurf_syzgen.Program
module Coverage = Ksurf_syzgen.Coverage
module Mutate = Ksurf_syzgen.Mutate
module Corpus = Ksurf_syzgen.Corpus
module Generator = Ksurf_syzgen.Generator

module Virt_config = Ksurf_virt.Virt_config
module Vm = Ksurf_virt.Vm
module Lightweight = Ksurf_virt.Lightweight
module Container = Ksurf_container.Container

module Machine = Ksurf_env.Machine
module Partition = Ksurf_env.Partition
module Env = Ksurf_env.Env

module Profile = Ksurf_spec.Profile
module Kspec = Ksurf_spec.Spec
module Specializer = Ksurf_spec.Specializer

module Harness = Ksurf_varbench.Harness
module Study = Ksurf_varbench.Study
module Noise = Ksurf_varbench.Noise
module Retry = Ksurf_varbench.Retry

module Workload = Ksurf_tenant.Workload
module Tenant_policy = Ksurf_tenant.Policy
module Fleet = Ksurf_tenant.Fleet

module Apps = Ksurf_tailbench.Apps
module Service = Ksurf_tailbench.Service
module Runner = Ksurf_tailbench.Runner
module Cluster = Ksurf_cluster.Cluster

module Analysis = Ksurf_analysis

module Fault_plan = Ksurf_fault.Plan
module Kfault = Ksurf_fault.Kfault

module Fileio = Ksurf_util.Fileio
module Iohook = Ksurf_util.Iohook

module Recov_journal = Ksurf_recov.Journal

module Clock = Ksurf_util.Clock
module Pool = Ksurf_par.Pool

module Report = Ksurf_report.Report
module Csv = Ksurf_report.Csv

module Footprint = Ksurf_static.Footprint
module Lockgraph = Ksurf_static.Lockgraph
module Interference = Ksurf_static.Interference
module Staticcheck = Ksurf_static.Staticcheck
module Experiments = Experiments
module Gates = Gates
