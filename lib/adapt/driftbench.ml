module Engine = Ksurf_sim.Engine
module Category = Ksurf_kernel.Category
module Program = Ksurf_syzgen.Program
module Corpus = Ksurf_syzgen.Corpus
module Generator = Ksurf_syzgen.Generator
module Profile = Ksurf_spec.Profile
module Spec = Ksurf_spec.Spec
module Specializer = Ksurf_spec.Specializer
module Env = Ksurf_env.Env
module Partition = Ksurf_env.Partition
module Plan = Ksurf_fault.Plan
module Kfault = Ksurf_fault.Kfault
module Prng = Ksurf_util.Prng
module Welford = Ksurf_util.Welford
module Streamstat = Ksurf_stats.Streamstat

type policy = Static | Audit_only | Adaptive

let policy_name = function
  | Static -> "static"
  | Audit_only -> "audit"
  | Adaptive -> "adaptive"

let all_policies = [ Static; Audit_only; Adaptive ]

(* The learned workload lives in the file subsystems; drift moves calls
   onto everything else.  Same split Experiments.Specialize pins its
   workload with, so "what the profile never saw" is well-defined. *)
let base_categories = [ Category.File_io; Category.Fs_mgmt ]

let novel_categories = [ Category.Ipc; Category.Perm ]

type config = {
  policy : policy;
  dose : float;
  epochs : int;
  programs_per_epoch : int;
  corpus_programs : int;
  drift_at_ns : float;
  seed : int;
}

let default_config =
  {
    policy = Adaptive;
    dose = 1.0;
    epochs = 48;
    programs_per_epoch = 24;
    corpus_programs = 24;
    drift_at_ns = 16_000_000.0;
    seed = 42;
  }

(* Two Multikernel units of two cores each. *)
let units = 2
let cores_per_unit = 2

(* The idle gap after each program. *)
let think_ns = 2_000.0

(* The mix shift at dose 1; it scales with the dose. *)
let base_shift = 0.25

type result = {
  policy : string;
  dose : float;
  ranks : int;
  epochs : int;
  calls : int;
  denied : int;
  calls_post_drift : int;
  denied_post_drift : int;
  fp_rate : float;
  p99_ns : float;
  surface : float;
  surface_full : float;
  reduction : float;
  drift_at_ns : float option;
  reconverge_ns : float option;
  promotions : int;
  demotions : int;
  respecializations : int;
  swaps : int;
  drifts : int;
  mean_denial_rate : float;
  p95_divergence : float;
}

let restrict_or_fail corpus ~keep ~what =
  match Profile.restrict corpus ~keep with
  | Some c -> c
  | None ->
      invalid_arg
        (Printf.sprintf "Driftbench: corpus has no %s programs" what)

let drift_plan (cfg : config) =
  Plan.scale cfg.dose
    {
      Plan.name = "drift";
      actions =
        [ Plan.Workload_drift { at_ns = cfg.drift_at_ns; shift = base_shift } ];
    }

let run ?(on_engine = fun (_ : Engine.t) -> ()) (cfg : config) =
  let engine = Engine.create ~seed:cfg.seed () in
  on_engine engine;
  let partition =
    Partition.equal_split ~units ~total_cores:(units * cores_per_unit)
      ~total_mem_mb:(units * cores_per_unit * 512)
  in
  let env = Env.deploy ~engine Env.Multikernel partition in
  let ranks = Env.rank_count env in
  let corpus =
    (Generator.run
       ~params:
         {
           Generator.default_params with
           Generator.seed = cfg.seed;
           target_programs = cfg.corpus_programs;
         }
       ())
      .Generator.corpus
  in
  let base_corpus =
    restrict_or_fail corpus ~keep:base_categories ~what:"base (file)"
  in
  let novel_corpus =
    restrict_or_fail corpus ~keep:novel_categories ~what:"novel (non-file)"
  in
  let base_programs = Corpus.programs base_corpus in
  let novel_programs = Corpus.programs novel_corpus in
  (* Unspecialized baseline, before any policy is installed. *)
  let surface_full =
    let s = ref 0.0 in
    for r = 0 to ranks - 1 do
      s := !s +. Env.surface_area_of_rank env r
    done;
    !s /. float_of_int ranks
  in
  (* kfault drives the drift: the armed plan fires Workload_drift at its
     virtual trigger time; our sink moves the program mix. *)
  let fh = Kfault.arm ~env ~plan:(drift_plan cfg) ~seed:cfg.seed () in
  let current_shift = ref 0.0 in
  let drift_at = ref None in
  Kfault.set_drift_sink fh
    (Some
       (fun ~shift ->
         current_shift := shift;
         drift_at := Some (Engine.now engine)));
  let controllers =
    match cfg.policy with
    | Adaptive ->
        Some
          (Array.init ranks (fun r ->
               Controller.create env ~rank:r
                 ~name:(Printf.sprintf "drift-r%d" r)))
    | Static | Audit_only ->
        (* The offline kspec path: one profile of the pre-drift workload,
           compiled once, installed forever. *)
        let profile = Profile.of_corpus ~name:"drift-offline" base_corpus in
        let mode =
          match cfg.policy with
          | Static -> Spec.Enforce
          | Audit_only | Adaptive -> Spec.Audit
        in
        let spec = Specializer.compile ~mode profile in
        for r = 0 to ranks - 1 do
          Env.swap_policy env ~rank:r (Some (Specializer.policy spec))
        done;
        None
  in
  let root = Prng.create cfg.seed in
  let finished = ref 0 in
  let calls_total = ref 0 and denied_total = ref 0 in
  let calls_post = ref 0 and denied_post = ref 0 in
  let latencies = Streamstat.create () in
  let clock = Engine.clock engine in
  let surface_samples = Welford.create () in
  List.iter
    (fun r ->
      let rng = Prng.split root (Printf.sprintf "drift-rank-%d" r) in
      Engine.spawn engine (fun () ->
          for _e = 1 to cfg.epochs do
            for _p = 1 to cfg.programs_per_epoch do
              let program =
                if !current_shift > 0.0 && Prng.chance rng !current_shift then
                  Prng.pick rng novel_programs
                else Prng.pick rng base_programs
              in
              let denied = ref 0 in
              List.iter
                (fun (c : Program.call) ->
                  let t0 = clock.(0) in
                  (match Env.try_syscall env ~rank:r c.Program.spec c.Program.arg with
                  | Env.Denied -> incr denied
                  | Env.Completed | Env.Faulted _ -> ());
                  Streamstat.add latencies (clock.(0) -. t0))
                program.Program.calls;
              let n = List.length program.Program.calls in
              calls_total := !calls_total + n;
              denied_total := !denied_total + !denied;
              if !drift_at <> None then begin
                calls_post := !calls_post + n;
                denied_post := !denied_post + !denied
              end;
              (match controllers with
              | Some cs -> Controller.observe cs.(r) ~denied:!denied program
              | None -> ());
              Engine.delay think_ns
            done;
            (match controllers with
            | Some cs -> ignore (Controller.epoch cs.(r))
            | None -> ());
            Welford.add surface_samples (Env.surface_area_of_rank env r)
          done;
          incr finished))
    (List.init ranks Fun.id);
  (* The kernel instances run [forever] background daemons, so the
     engine never drains on its own: stop once every rank has finished
     its epochs (the drift trigger must be scheduled well before that
     point, or the dose is silently a no-op). *)
  Engine.run ~stop:(fun () -> !finished >= ranks) engine;
  let fstats = Kfault.stats fh in
  Kfault.disarm fh;
  let cstats =
    match controllers with
    | None -> []
    | Some cs -> Array.to_list (Array.map Controller.stats cs)
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 cstats in
  let promotions = sum (fun (s : Controller.stats) -> s.Controller.promotions) in
  let demotions = sum (fun (s : Controller.stats) -> s.Controller.demotions) in
  let respecializations =
    sum (fun (s : Controller.stats) -> s.Controller.respecializations)
  in
  let reconverge_ns =
    match (!drift_at, controllers) with
    | Some d, Some cs
      when Array.for_all (fun c -> Controller.state c = Controller.Enforcing) cs
      ->
        (* Reconverged iff every rank re-promoted after the drift; the
           fleet reconvergence time is the slowest rank's. *)
        let latest = ref neg_infinity in
        let all_after =
          Array.for_all
            (fun c ->
              match (Controller.stats c).Controller.last_promote_ns with
              | Some p when p > d ->
                  if p > !latest then latest := p;
                  true
              | _ -> false)
            cs
        in
        if all_after then Some (!latest -. d) else None
    | _ -> None
  in
  let fp_rate =
    match !drift_at with
    | Some _ when !calls_post > 0 ->
        float_of_int !denied_post /. float_of_int !calls_post
    | _ ->
        if !calls_total = 0 then 0.0
        else float_of_int !denied_total /. float_of_int !calls_total
  in
  let surface =
    if Welford.count surface_samples = 0 then surface_full
    else Welford.mean surface_samples
  in
  let mean_denial_rate =
    match cstats with
    | [] -> 0.0
    | _ ->
        List.fold_left
          (fun acc (s : Controller.stats) -> acc +. s.Controller.mean_denial_rate)
          0.0 cstats
        /. float_of_int (List.length cstats)
  in
  let p95_divergence =
    List.fold_left
      (fun acc (s : Controller.stats) ->
        match s.Controller.p95_divergence with
        | Some d -> Float.max acc d
        | None -> acc)
      0.0 cstats
  in
  {
    policy = policy_name cfg.policy;
    dose = cfg.dose;
    ranks;
    epochs = cfg.epochs;
    calls = !calls_total;
    denied = !denied_total;
    calls_post_drift = !calls_post;
    denied_post_drift = !denied_post;
    fp_rate;
    p99_ns = Streamstat.p99 latencies;
    surface;
    surface_full;
    reduction =
      (if surface_full > 0.0 then 1.0 -. (surface /. surface_full) else 0.0);
    drift_at_ns = !drift_at;
    reconverge_ns;
    promotions;
    demotions;
    respecializations;
    swaps = Env.policy_swaps env;
    drifts = fstats.Kfault.workload_drifts;
    mean_denial_rate;
    p95_divergence;
  }
