(* kadapt controller and drift-sweep tests: live-recorder snapshot
   determinism, promotion/demotion hysteresis (no flapping at either
   boundary), swap accounting, and the sweep-level guarantees the other
   experiment suites also pin — jobs-count byte-identity of the export
   and journal kill/resume equivalence. *)

module E = Ksurf.Experiments
module A = Ksurf.Adapt
module D = Ksurf.Driftbench
module Profile = Ksurf.Profile
module Program = Ksurf.Program
module Prng = Ksurf.Prng

(* ------------------------------------------------------------------ *)
(* Helpers                                                            *)
(* ------------------------------------------------------------------ *)

let with_tmp_dir prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A deterministic program stream: the same seed must regenerate the
   same programs call for call. *)
let programs ~seed ~n ~len =
  let rng = Prng.create seed in
  List.init n (fun id -> Program.random rng ~id ~min_len:len ~max_len:len)

(* A one-rank Multikernel deployment to hang a controller off.  The
   engine never runs — controller accounting is pure bookkeeping plus
   policy swaps, which only need the deployment to exist. *)
let mk_env ~seed =
  let engine = Ksurf.Engine.create ~seed () in
  let partition =
    Ksurf.Partition.equal_split ~units:1 ~total_cores:1 ~total_mem_mb:512
  in
  Ksurf.Env.deploy ~engine Ksurf.Env.Multikernel partition

(* Feed one epoch's worth of calls: [copies] observations of [p], each
   with [denied] calls charged as enforced ENOSYS. *)
let feed ctl ?(denied = 0) ~copies p =
  for _ = 1 to copies do
    A.observe ctl ~denied p
  done

let check_decision = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Recorder snapshot determinism                                      *)
(* ------------------------------------------------------------------ *)

let test_recorder_determinism () =
  let feed_recorder () =
    let r = Profile.recorder ~name:"det" () in
    List.iter (Profile.observe r) (programs ~seed:123 ~n:32 ~len:6);
    r
  in
  let r1 = feed_recorder () and r2 = feed_recorder () in
  Alcotest.(check int)
    "same stream covers the same blocks" (Profile.observed_blocks r1)
    (Profile.observed_blocks r2);
  let same (a : Profile.t) (b : Profile.t) =
    a.Profile.name = b.Profile.name
    && a.Profile.syscalls = b.Profile.syscalls
    && a.Profile.categories = b.Profile.categories
    && Ksurf.Coverage.Set.equal a.Profile.coverage b.Profile.coverage
  in
  Alcotest.(check bool)
    "same stream snapshots the same profile" true
    (same (Profile.snapshot r1) (Profile.snapshot r2));
  (* Snapshotting is a pure read: doing it twice (with more snapshots
     in between) changes nothing. *)
  Alcotest.(check bool)
    "snapshot is a pure read" true
    (same (Profile.snapshot r1) (Profile.snapshot r1))

(* ------------------------------------------------------------------ *)
(* Promotion hysteresis                                               *)
(* ------------------------------------------------------------------ *)

(* Promotion takes two consecutive stable epochs after the
   frontier-setting one, and fires on the second.  Each fed epoch below
   runs 4 copies of a 4-call program: the 16-call minimum. *)

let test_promotion_needs_consecutive_stability () =
  let env = mk_env ~seed:1 in
  let ctl = A.create env ~rank:0 ~name:"promo" in
  let p = List.hd (programs ~seed:7 ~n:1 ~len:4) in
  Alcotest.(check int) "create installs the audit window" 1
    (Ksurf.Env.policy_swaps env);
  (* Epoch 1 sets the coverage frontier, epoch 2 is the first stable
     one: neither may promote. *)
  feed ctl ~copies:4 p;
  check_decision "frontier-setting epoch stays" true (A.epoch ctl = A.Stayed);
  feed ctl ~copies:4 p;
  check_decision "first stable epoch stays" true (A.epoch ctl = A.Stayed);
  Alcotest.(check bool) "still auditing" true (A.state ctl = A.Auditing);
  feed ctl ~copies:4 p;
  check_decision "second stable epoch promotes" true (A.epoch ctl = A.Promoted);
  Alcotest.(check bool) "now enforcing" true (A.state ctl = A.Enforcing);
  Alcotest.(check bool) "promotion compiled a spec" true (A.spec ctl <> None);
  Alcotest.(check int) "promotion swapped the policy" 2
    (Ksurf.Env.policy_swaps env)

let test_underfed_epochs_count_for_nothing () =
  let env = mk_env ~seed:2 in
  let ctl = A.create env ~rank:0 ~name:"underfed" in
  let p = List.hd (programs ~seed:7 ~n:1 ~len:4) in
  (* 4 calls per epoch, under the 16-call minimum: stable coverage
     forever, but an underfed epoch is evidence of nothing. *)
  for i = 1 to 10 do
    feed ctl ~copies:1 p;
    check_decision
      (Printf.sprintf "underfed epoch %d stays" i)
      true
      (A.epoch ctl = A.Stayed)
  done;
  Alcotest.(check bool) "still auditing after 10 underfed epochs" true
    (A.state ctl = A.Auditing);
  Alcotest.(check int) "no swap beyond the audit install" 1
    (Ksurf.Env.policy_swaps env)

let test_moving_frontier_resets_stability () =
  let env = mk_env ~seed:3 in
  let ctl = A.create env ~rank:0 ~name:"frontier" in
  match programs ~seed:7 ~n:2 ~len:4 with
  | [ p1; p2 ] ->
      (* Sanity: p2 must extend p1's coverage, otherwise the frontier
         would not move below.  Deterministic for the fixed seed. *)
      let scratch = Profile.recorder ~name:"scratch" () in
      Profile.observe scratch p1;
      let b1 = Profile.observed_blocks scratch in
      Profile.observe scratch p2;
      Alcotest.(check bool) "fixture: p2 extends p1 coverage" true
        (Profile.observed_blocks scratch > b1);
      feed ctl ~copies:4 p1;
      check_decision "set frontier" true (A.epoch ctl = A.Stayed);
      feed ctl ~copies:4 p1;
      check_decision "one stable epoch" true (A.epoch ctl = A.Stayed);
      (* New coverage arrives: the streak must reset, so the next two
         stable epochs are again not enough to promote early. *)
      feed ctl ~copies:2 p1;
      feed ctl ~copies:2 p2;
      check_decision "frontier moved, stays" true (A.epoch ctl = A.Stayed);
      feed ctl ~copies:4 p1;
      check_decision "stable again (1/2)" true (A.epoch ctl = A.Stayed);
      Alcotest.(check bool) "no early promotion" true
        (A.state ctl = A.Auditing);
      feed ctl ~copies:4 p1;
      check_decision "stable again (2/2) promotes" true
        (A.epoch ctl = A.Promoted)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Demotion hysteresis                                                *)
(* ------------------------------------------------------------------ *)

(* Promote a fresh controller on program [p] (3 fed epochs). *)
let promoted ~seed =
  let env = mk_env ~seed in
  let ctl = A.create env ~rank:0 ~name:"demo" in
  let p = List.hd (programs ~seed:7 ~n:1 ~len:4) in
  feed ctl ~copies:4 p;
  ignore (A.epoch ctl);
  feed ctl ~copies:4 p;
  ignore (A.epoch ctl);
  feed ctl ~copies:4 p;
  Alcotest.(check bool) "fixture promotes" true (A.epoch ctl = A.Promoted);
  (env, ctl, p)

let test_boundary_rate_never_demotes () =
  let _env, ctl, p = promoted ~seed:4 in
  (* Each epoch runs 20 calls with 1 denied: the rate sits exactly on
     the 5% limit.  Strict inequality means this is not a breach,
     however long it lasts. *)
  for i = 1 to 6 do
    A.observe ctl ~denied:1 p;
    feed ctl ~copies:4 p;
    check_decision
      (Printf.sprintf "at-limit epoch %d stays" i)
      true
      (A.epoch ctl = A.Stayed)
  done;
  Alcotest.(check bool) "still enforcing at the boundary" true
    (A.state ctl = A.Enforcing)

let test_just_over_rate_demotes () =
  let env, ctl, p = promoted ~seed:8 in
  (* The other side of the boundary: 16 calls with 1 denied is a 6.25%
     rate, just over the 5% limit, so two such epochs in a row are
     drift. *)
  A.observe ctl ~denied:1 p;
  feed ctl ~copies:3 p;
  check_decision "first over-limit epoch stays" true (A.epoch ctl = A.Stayed);
  A.observe ctl ~denied:1 p;
  feed ctl ~copies:3 p;
  check_decision "second over-limit epoch demotes" true
    (A.epoch ctl = A.Demoted);
  Alcotest.(check bool) "back to auditing" true (A.state ctl = A.Auditing);
  Alcotest.(check int) "swaps = create + promote + demote" 3
    (Ksurf.Env.policy_swaps env)

let test_single_breach_is_not_drift () =
  let env, ctl, p = promoted ~seed:5 in
  (* Alternate over-limit and clean epochs: breaches never become
     consecutive, so the two-breach rule never fires. *)
  for i = 1 to 4 do
    feed ctl ~denied:4 ~copies:4 p;
    check_decision
      (Printf.sprintf "isolated breach %d stays" i)
      true
      (A.epoch ctl = A.Stayed);
    feed ctl ~copies:4 p;
    check_decision
      (Printf.sprintf "clean epoch %d resets the breach count" i)
      true
      (A.epoch ctl = A.Stayed)
  done;
  Alcotest.(check bool) "no demotion from isolated breaches" true
    (A.state ctl = A.Enforcing);
  Alcotest.(check int) "no swap beyond create + promote" 2
    (Ksurf.Env.policy_swaps env)

let test_consecutive_breaches_demote_then_respecialize () =
  let env, ctl, p = promoted ~seed:6 in
  feed ctl ~denied:4 ~copies:4 p;
  check_decision "first breach stays" true (A.epoch ctl = A.Stayed);
  feed ctl ~denied:4 ~copies:4 p;
  check_decision "second consecutive breach demotes" true
    (A.epoch ctl = A.Demoted);
  Alcotest.(check bool) "back to auditing" true (A.state ctl = A.Auditing);
  Alcotest.(check bool) "stale spec kept through demotion" true
    (A.spec ctl <> None);
  Alcotest.(check int) "demotion swapped the policy" 3
    (Ksurf.Env.policy_swaps env);
  (* Re-learn and re-promote: same three-epoch cadence as the first
     promotion, on the fresh recorder. *)
  feed ctl ~copies:4 p;
  ignore (A.epoch ctl);
  feed ctl ~copies:4 p;
  ignore (A.epoch ctl);
  feed ctl ~copies:4 p;
  check_decision "re-promotes after re-learning" true
    (A.epoch ctl = A.Promoted);
  let s = A.stats ctl in
  Alcotest.(check int) "two promotions" 2 s.A.promotions;
  Alcotest.(check int) "one demotion" 1 s.A.demotions;
  Alcotest.(check int) "second promotion is a respecialization" 1
    s.A.respecializations;
  Alcotest.(check int) "swaps = audit install + promotions + demotions" 4
    (Ksurf.Env.policy_swaps env)

(* A 4-call program of one syscall. *)
let program_of name =
  let spec = Option.get (Ksurf.Syscalls.by_name name) in
  let rng = Prng.create 7 in
  {
    Program.id = 0;
    calls =
      List.init 4 (fun _ ->
          { Program.spec; arg = Ksurf.Arg.generate spec.Ksurf.Spec.arg_model rng });
  }

let test_divergence_demotes () =
  (* A call mix the learned baseline never saw, with no denials charged
     at all, so the detector must fire on the mix signal alone.  File
     reads against process calls are a total-variation distance of 1,
     over the 0.25 limit. *)
  let env = mk_env ~seed:9 in
  let ctl = A.create env ~rank:0 ~name:"div" in
  let p1 = program_of "read" and p2 = program_of "getpid" in
  let mix_of p =
    let r = Profile.recorder ~name:"mix" () in
    Profile.observe r p;
    Profile.mix (Profile.snapshot r)
  in
  let tv =
    0.5
    *. Array.fold_left ( +. ) 0.0
         (Array.map2 (fun a b -> Float.abs (a -. b)) (mix_of p1) (mix_of p2))
  in
  Alcotest.(check bool) "fixture: p1 and p2 mixes are over the limit apart" true
    (tv > 0.25);
  feed ctl ~copies:4 p1;
  ignore (A.epoch ctl);
  feed ctl ~copies:4 p1;
  ignore (A.epoch ctl);
  feed ctl ~copies:4 p1;
  Alcotest.(check bool) "fixture promotes" true (A.epoch ctl = A.Promoted);
  feed ctl ~copies:4 p2;
  check_decision "first divergent epoch stays" true (A.epoch ctl = A.Stayed);
  feed ctl ~copies:4 p2;
  check_decision "second divergent epoch demotes" true (A.epoch ctl = A.Demoted)

(* ------------------------------------------------------------------ *)
(* Driftbench cell determinism and accounting                         *)
(* ------------------------------------------------------------------ *)

let tiny_cell policy =
  {
    D.policy;
    dose = 2.0;
    epochs = 12;
    programs_per_epoch = 12;
    corpus_programs = 16;
    drift_at_ns = 4_000_000.0;
    seed = 11;
  }

let test_driftbench_determinism () =
  let r1 = D.run (tiny_cell D.Adaptive) in
  let r2 = D.run (tiny_cell D.Adaptive) in
  Alcotest.(check bool) "same config, bit-identical result" true (r1 = r2);
  (* The accounting identity the smoke gate also enforces: every policy
     transition is a swap, and the adaptive cell's swaps decompose into
     the initial audit installs plus the controller's moves. *)
  Alcotest.(check int) "swaps = ranks + promotions + demotions"
    (r1.D.ranks + r1.D.promotions + r1.D.demotions)
    r1.D.swaps;
  Alcotest.(check int) "exactly one drift injection at dose > 0" 1 r1.D.drifts;
  Alcotest.(check bool) "fp rate within [0, 1]" true
    (r1.D.fp_rate >= 0.0 && r1.D.fp_rate <= 1.0)

(* ------------------------------------------------------------------ *)
(* Sweep-level guarantees: jobs byte-identity and journal resume      *)
(* ------------------------------------------------------------------ *)

let doses = [ 0.0; 2.0 ]
let sweep_policies = [ D.Static; D.Adaptive ]

let run ?journal ?pool () =
  E.Drift.run ~doses ~policies:sweep_policies
    (E.context ~seed:7 ?journal ?pool E.Quick)

(* The drift entry over this grid, exported through the one writer. *)
let export_bytes jobs =
  let study = E.Drift.study ~doses ~policies:sweep_policies () in
  let o =
    Ksurf.Pool.with_pool ~jobs (fun pool ->
        study.E.run (E.context ~seed:7 ~pool E.Quick))
  in
  match o.E.csvs with
  | [ c ] -> with_tmp_dir "ksurf-drift" (fun dir -> read_file (E.write_csv ~dir c))
  | cs -> Alcotest.failf "expected one exported file, got %d" (List.length cs)

let test_jobs_invariant () =
  Alcotest.(check string) "csv bytes identical across --jobs" (export_bytes 1)
    (export_bytes 4)

let test_journal_resume () =
  let full = run () in
  let keys =
    List.concat_map
      (fun policy -> List.map (fun dose -> E.Drift.cell_key (policy, dose)) doses)
      sweep_policies
  in
  let half = List.filteri (fun i _ -> i < List.length keys / 2) keys in
  let jpath = Filename.temp_file "ksurf-drift" ".journal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove jpath)
    (fun () ->
      let journal = Ksurf.Recov_journal.load ~path:jpath () in
      List.iter (Ksurf.Recov_journal.record journal) half;
      Ksurf.Recov_journal.flush journal;
      let resumed = run ~journal () in
      Alcotest.(check int) "resume computes only the missing cells"
        (List.length keys - List.length half)
        (List.length resumed.E.Drift.cells);
      (* Resumed cells must equal the clean run's, field for field
         (immutable scalars + strings, so structural equality is
         exact). *)
      List.iter
        (fun (c : E.Drift.cell) ->
          match E.Drift.cell full ~policy:c.D.policy ~dose:c.D.dose with
          | Some f -> Alcotest.(check bool) "cell equals clean run" true (f = c)
          | None -> Alcotest.fail "resumed cell missing from clean run")
        resumed.E.Drift.cells;
      (* A second resume with the now-complete journal is a no-op. *)
      List.iter
        (fun (c : E.Drift.cell) ->
          match
            List.find_opt (fun p -> D.policy_name p = c.D.policy) D.all_policies
          with
          | Some p ->
              Ksurf.Recov_journal.record journal (E.Drift.cell_key (p, c.D.dose))
          | None -> Alcotest.failf "bad policy %s" c.D.policy)
        resumed.E.Drift.cells;
      Ksurf.Recov_journal.flush journal;
      let again = run ~journal:(Ksurf.Recov_journal.load ~path:jpath ()) () in
      Alcotest.(check int) "complete journal skips everything" 0
        (List.length again.E.Drift.cells))

let suite =
  [
    Alcotest.test_case "recorder snapshot determinism" `Quick
      test_recorder_determinism;
    Alcotest.test_case "promotion needs consecutive stability" `Quick
      test_promotion_needs_consecutive_stability;
    Alcotest.test_case "underfed epochs count for nothing" `Quick
      test_underfed_epochs_count_for_nothing;
    Alcotest.test_case "moving frontier resets stability" `Quick
      test_moving_frontier_resets_stability;
    Alcotest.test_case "at-limit denial rate never demotes" `Quick
      test_boundary_rate_never_demotes;
    Alcotest.test_case "single breach is not drift" `Quick
      test_single_breach_is_not_drift;
    Alcotest.test_case "consecutive breaches demote, then respecialize" `Quick
      test_consecutive_breaches_demote_then_respecialize;
    Alcotest.test_case "call-mix divergence demotes" `Quick
      test_divergence_demotes;
    Alcotest.test_case "just over the denial limit demotes" `Quick
      test_just_over_rate_demotes;
    Alcotest.test_case "driftbench cell deterministic" `Quick
      test_driftbench_determinism;
    Alcotest.test_case "jobs 1 vs 4 byte-identical export" `Quick
      test_jobs_invariant;
    Alcotest.test_case "journal kill/resume equivalence" `Quick
      test_journal_resume;
  ]
