(** Driver for the static analysis pass (kstat).

    Combines {!Footprint} (per-call static footprints), {!Lockgraph}
    (whole-table lock-order graph + potential-deadlock cycles) and
    {!Interference} (instance-global contention matrix) with static
    allowlist verification for kspec deployments.  All of it is
    computed from the syscall table alone — no simulator run. *)

val reachable_names : ?keep:Ksurf_kernel.Category.t list -> unit -> string list
(** Calls whose categories are all within [keep] (default: every
    category — the whole table), sorted.  Mirrors
    {!Ksurf_spec.Profile.restrict}: a multi-category call needs every
    one of its categories kept. *)

val static_surface : allowlist:string list -> float
(** {!Ksurf_spec.Specializer.reachable_fraction}: fraction of the
    coverage universe reachable through the allowlist. *)

val dynamic_surface : Ksurf_spec.Profile.t -> float
(** Fraction of the coverage universe the profile actually covered —
    the dynamic number the static one must upper-bound. *)

type spec_report = {
  workload : string;
  keep : Ksurf_kernel.Category.t list;
  reachable : string list;  (** statically reachable under [keep] *)
  allowlist : string list;
  gaps : string list;
      (** corpus-issued-but-not-allowed: ENOSYS hazards under Enforce *)
  slack : string list;  (** allowed-but-unreachable *)
  findings : Ksurf_analysis.Finding.t list;
  static_surface : float;
  dynamic_surface : float;
}

val verify :
  workload:string ->
  keep:Ksurf_kernel.Category.t list ->
  profile:Ksurf_spec.Profile.t ->
  spec:Ksurf_spec.Spec.t ->
  config:Ksurf_kernel.Config.t ->
  unit ->
  spec_report
(** Verify a (profile, allowlist, kernel config) triple: gaps are
    errors under [Enforce] (the call would hit ENOSYS) and warnings
    under [Audit]; slack is always a warning; an allowed call whose
    footprint needs machinery the config prunes is an error
    ([machinery-pruned]). *)

val pp_spec_report : Format.formatter -> spec_report -> unit


val export_csv : dir:string -> unit -> string list
(** Write static_footprints.csv, static_lock_graph.csv and
    static_interference.csv under [dir]; returns the paths written. *)
