(** The kadapt controller: online adaptive specialization for one rank.

    kspec compiles allowlists offline; this closes the loop live.  Each
    controller owns one rank's policy and cycles it through a two-phase
    state machine:

    - {b Auditing}: a permissive (or stale-allowlist) Audit-mode policy
      is installed and every program the rank issues feeds a live
      {!Ksurf_spec.Profile.recorder}.  The {e promotion rule} watches
      coverage stability: once 2 consecutive sufficiently-fed epochs
      add no new coverage blocks, the recorded
      profile is compiled ({!Ksurf_spec.Specializer.compile}, [Enforce])
      and hot-installed via {!Ksurf_env.Env.swap_policy}.
    - {b Enforcing}: the {e drift detector} watches each epoch's
      enforced-denial rate and the total-variation divergence between
      the epoch's per-category call mix and the learned profile's mix
      (streamed into {!Ksurf_util.Welford} / {!Ksurf_stats.P2_quantile}
      diagnostics).  Either signal strictly exceeding its limit (a 5%
      denial rate, a 0.25 divergence) demotes the rank back to Auditing — stale allowlist kept in Audit mode so
      would-be denials stay probe-visible — and a fresh recorder
      re-learns the workload until the promotion rule fires again (a
      {e respecialization}).

    Every transition is a probe-visible
    [Engine.Rank_transition] between the policy states
    ["unfiltered"]/["audit"]/["enforce"] (emitted by
    {!Ksurf_env.Env.swap_policy}), and every denial is a probe-visible
    [Engine.Denied], so ksan's lockdep/determinism/invariant tooling
    sees the whole control loop.

    Hysteresis by construction: promotion needs 2 {e consecutive}
    stable epochs, demotion needs 2 {e consecutive} epochs with a
    signal {e strictly} above its limit, and underfed epochs (fewer
    than 16 calls) are evidence of nothing — so a workload sitting
    exactly at a boundary never flaps. *)

type state = Auditing | Enforcing

type decision = Promoted | Demoted | Stayed
(** What {!epoch} did. *)

type t

val create : Ksurf_env.Env.t -> rank:int -> name:string -> t
(** Attach a controller to [rank]: installs the permissive audit-window
    policy (probe-visible ["unfiltered"] -> ["audit"] transition) and
    starts recording under profile name [name]. *)

val observe : t -> ?denied:int -> Ksurf_syzgen.Program.t -> unit
(** Account one issued program: its calls enter the epoch call-mix
    accumulators (and, while Auditing, the live recorder).  [denied] is
    how many of its calls the installed policy denied with ENOSYS —
    the harness counts [Env.Denied] outcomes; only enforced denials
    qualify. *)

val epoch : t -> decision
(** Close the current epoch: evaluate the promotion rule or the drift
    detector, swap the policy if either fires, and reset the epoch
    accumulators. *)

val state : t -> state
val spec : t -> Ksurf_spec.Spec.t option
(** The most recently compiled spec ([None] until first promotion). *)

type stats = {
  epochs : int;
  promotions : int;
  demotions : int;
  respecializations : int;  (** promotions after the first *)
  last_promote_ns : float option;
      (** virtual time of the latest promotion — the reconvergence
          marker *)
  mean_denial_rate : float;
      (** Welford mean over enforce-epoch denial rates (0 if none) *)
  p95_divergence : float option;
      (** P² 0.95 estimate over enforce-epoch divergences *)
}

val stats : t -> stats
