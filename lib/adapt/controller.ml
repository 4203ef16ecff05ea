module Engine = Ksurf_sim.Engine
module Category = Ksurf_kernel.Category
module Instance = Ksurf_kernel.Instance
module Program = Ksurf_syzgen.Program
module Profile = Ksurf_spec.Profile
module Spec = Ksurf_spec.Spec
module Specializer = Ksurf_spec.Specializer
module Env = Ksurf_env.Env
module Welford = Ksurf_util.Welford
module P2 = Ksurf_stats.P2_quantile

let stability_epochs = 2
let min_epoch_calls = 16
let denial_rate_limit = 0.05
let divergence_limit = 0.25
let breach_epochs = 2

type state = Auditing | Enforcing

type decision = Promoted | Demoted | Stayed

type t = {
  env : Env.t;
  rank : int;
  base_name : string;
  mutable state : state;
  mutable recorder : Profile.recorder;
  mutable audits : int;  (** audit windows opened (1 at create) *)
  mutable spec : Spec.t option;
  (* promotion rule: consecutive sufficiently-fed epochs whose coverage
     frontier did not move *)
  mutable last_blocks : int;
  mutable stable_epochs : int;
  (* drift detector hysteresis: consecutive over-limit enforce epochs *)
  mutable breaches : int;
  (* drift detector baseline: the promoted profile's category mix *)
  mutable baseline_mix : float array;
  (* per-epoch accumulators, reset by [epoch] *)
  mutable epoch_calls : int;
  mutable epoch_denied : int;
  epoch_mix : int array;
  (* streaming diagnostics over the whole run *)
  denial_rates : Welford.t;
  divergences : P2.t;
  (* counters *)
  mutable epochs : int;
  mutable promotions : int;
  mutable demotions : int;
  mutable last_promote_ns : float option;
}

let categories = List.length Category.all

(* The audit-window policy: allow everything, reduce nothing.  Installed
   at creation so the rank's policy state is "audit" from the first
   instruction, with the transition probe-visible. *)
let permissive_audit_policy () =
  {
    Instance.allows = (fun _ -> true);
    policy_mode = Instance.Audit;
    reachable = 1.0;
    denials = ref 0;
  }

let create env ~rank ~name =
  let t =
    {
      env;
      rank;
      base_name = name;
      state = Auditing;
      recorder = Profile.recorder ~name ();
      audits = 1;
      spec = None;
      last_blocks = 0;
      stable_epochs = 0;
      breaches = 0;
      baseline_mix = Array.make categories 0.0;
      epoch_calls = 0;
      epoch_denied = 0;
      epoch_mix = Array.make categories 0;
      denial_rates = Welford.create ();
      divergences = P2.create 0.95;
      epochs = 0;
      promotions = 0;
      demotions = 0;
      last_promote_ns = None;
    }
  in
  Env.swap_policy env ~rank (Some (permissive_audit_policy ()));
  t

let observe t ?(denied = 0) (p : Program.t) =
  List.iter
    (fun (c : Program.call) ->
      List.iter
        (fun cat ->
          let i = Category.index cat in
          t.epoch_mix.(i) <- t.epoch_mix.(i) + 1)
        c.Program.spec.Ksurf_syscalls.Spec.categories)
    p.Program.calls;
  t.epoch_calls <- t.epoch_calls + List.length p.Program.calls;
  t.epoch_denied <- t.epoch_denied + denied;
  (* The audit window learns every program, including ones the stale
     allowlist would have denied — that is the whole point of demoting
     before re-learning. *)
  if t.state = Auditing then Profile.observe t.recorder p

(* Total-variation distance between the learned mix and this epoch's
   mix: 1/2 sum |p_i - q_i|, in [0, 1]. *)
let divergence t =
  let total = float_of_int (Array.fold_left ( + ) 0 t.epoch_mix) in
  if total = 0.0 then 0.0
  else begin
    let d = ref 0.0 in
    Array.iteri
      (fun i n -> d := !d +. Float.abs ((float_of_int n /. total) -. t.baseline_mix.(i)))
      t.epoch_mix;
    0.5 *. !d
  end

let promote t =
  let profile = Profile.snapshot t.recorder in
  let spec = Specializer.compile ~mode:Spec.Enforce profile in
  t.baseline_mix <- Profile.mix profile;
  Env.swap_policy t.env ~rank:t.rank (Some (Specializer.policy spec));
  t.spec <- Some spec;
  t.state <- Enforcing;
  t.promotions <- t.promotions + 1;
  t.stable_epochs <- 0;
  t.breaches <- 0;
  t.last_promote_ns <- Some (Engine.now (Env.engine t.env));
  Promoted

let demote t =
  (match t.spec with
  | Some spec ->
      (* Keep the stale allowlist installed in Audit mode: would-be
         denials stay probe-visible while the re-learn happens, but
         nothing is stopped and no surface credit is claimed. *)
      Env.swap_policy t.env ~rank:t.rank
        (Some (Specializer.policy { spec with Spec.mode = Spec.Audit }))
  | None ->
      Env.swap_policy t.env ~rank:t.rank (Some (permissive_audit_policy ())));
  t.audits <- t.audits + 1;
  t.recorder <-
    Profile.recorder
      ~name:(Printf.sprintf "%s#%d" t.base_name t.audits)
      ();
  t.state <- Auditing;
  t.demotions <- t.demotions + 1;
  t.last_blocks <- 0;
  t.stable_epochs <- 0;
  t.breaches <- 0;
  Demoted

let epoch t =
  t.epochs <- t.epochs + 1;
  let calls = t.epoch_calls in
  let decision =
    if calls < min_epoch_calls then Stayed
      (* An underfed epoch is evidence of nothing: it neither advances
         the stability count nor triggers the drift detector. *)
    else
      match t.state with
      | Auditing ->
          let blocks = Profile.observed_blocks t.recorder in
          if blocks > 0 && blocks = t.last_blocks then begin
            t.stable_epochs <- t.stable_epochs + 1;
            if t.stable_epochs >= stability_epochs then promote t
            else Stayed
          end
          else begin
            t.last_blocks <- blocks;
            t.stable_epochs <- 0;
            Stayed
          end
      | Enforcing ->
          let rate = float_of_int t.epoch_denied /. float_of_int calls in
          let div = divergence t in
          Welford.add t.denial_rates rate;
          P2.add t.divergences div;
          (* Strict inequalities: sitting exactly on a limit is not
             drift.  One noisy epoch is not drift either — demotion
             needs [breach_epochs] consecutive over-limit epochs, so
             the boundary cannot flap in either direction. *)
          if rate > denial_rate_limit || div > divergence_limit then begin
            t.breaches <- t.breaches + 1;
            if t.breaches >= breach_epochs then demote t else Stayed
          end
          else begin
            t.breaches <- 0;
            Stayed
          end
  in
  t.epoch_calls <- 0;
  t.epoch_denied <- 0;
  Array.fill t.epoch_mix 0 categories 0;
  decision

let state t = t.state
let spec t = t.spec

type stats = {
  epochs : int;
  promotions : int;
  demotions : int;
  respecializations : int;
  last_promote_ns : float option;
  mean_denial_rate : float;
  p95_divergence : float option;
}

let stats (t : t) =
  {
    epochs = t.epochs;
    promotions = t.promotions;
    demotions = t.demotions;
    respecializations = max 0 (t.promotions - 1);
    last_promote_ns = t.last_promote_ns;
    mean_denial_rate =
      (if Welford.count t.denial_rates = 0 then 0.0
       else Welford.mean t.denial_rates);
    p95_divergence = P2.quantile_opt t.divergences;
  }
