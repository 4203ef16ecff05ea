(** The kadapt dose–response harness: one (policy, dose) cell of the
    drift study.

    A Multikernel deployment serves a file-subsystem workload (the same
    File_io/Fs_mgmt restriction the kspec study pins); a kfault
    [Workload_drift] action fires mid-run and shifts fraction
    [shift = dose * 0.25] of each rank's subsequent programs onto the
    non-file corpus the learned profile never saw.  Three policies
    face the drift:

    - {b static}: the offline kspec path — one Enforce spec compiled
      from the pre-drift corpus, installed forever.  Every post-drift
      novel call is a false-positive ENOSYS.
    - {b audit}: the same allowlist in Audit mode — would-be denials
      are probe-visible but nothing is stopped, and (per the
      mode-aware surface accounting) nothing is reduced.
    - {b adaptive}: a {!Controller} per rank — audit, promote, detect
      the drift, demote, re-learn, re-promote.

    The result tables false-positive ENOSYS rate vs. retained surface
    area vs. time-to-reconverge.  Fully deterministic for a given
    config: per-rank PRNG streams split off one seed, latencies pooled
    in a {!Ksurf_stats.Streamstat}, and the run stops once every rank
    finishes its epochs (kernel background daemons run forever, so the
    engine never drains on its own). *)

type policy = Static | Audit_only | Adaptive

val policy_name : policy -> string
(** ["static"] / ["audit"] / ["adaptive"]. *)

val all_policies : policy list


type config = {
  policy : policy;
  dose : float;  (** scales the plan: shift = dose * 0.25 *)
  epochs : int;
  programs_per_epoch : int;
      (** per rank and epoch, each followed by a 2 us idle gap; there
          are 4 ranks, two Multikernel units of two cores *)
  corpus_programs : int;
  drift_at_ns : float;  (** virtual trigger time of the drift *)
  seed : int;
}

val default_config : config

type result = {
  policy : string;
  dose : float;
  ranks : int;
  epochs : int;
  calls : int;
  denied : int;  (** enforced ENOSYS over the whole run *)
  calls_post_drift : int;
  denied_post_drift : int;
  fp_rate : float;
      (** false-positive ENOSYS rate: post-drift denials over post-drift
          calls when the drift fired, whole-run otherwise.  Every denial
          is a false positive — the workload is legitimate. *)
  p99_ns : float;
  surface : float;
      (** epoch-sampled mean functional surface area per rank *)
  surface_full : float;  (** unspecialized baseline *)
  reduction : float;  (** 1 - surface / surface_full *)
  drift_at_ns : float option;  (** when the drift actually fired *)
  reconverge_ns : float option;
      (** drift -> slowest rank's re-promotion; [None] if any rank was
          still auditing at the end (or no drift fired) *)
  promotions : int;
  demotions : int;
  respecializations : int;
  swaps : int;  (** {!Ksurf_env.Env.policy_swaps} *)
  drifts : int;  (** kfault workload-drift injections delivered *)
  mean_denial_rate : float;
      (** controller Welford mean, averaged over ranks *)
  p95_divergence : float;  (** max over ranks of the P² 0.95 estimate *)
}

val run : ?on_engine:(Ksurf_sim.Engine.t -> unit) -> config -> result
(** Run one cell.  [on_engine] is called on the fresh engine before
    deployment, so probes attached there see setup-time policy
    installs. *)

