(* ksurf command-line interface: generate corpora and regenerate any of
   the paper's tables and figures from the terminal. *)

open Cmdliner
module E = Ksurf.Experiments

let setup_logs level =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level

let logs_term = Term.(const setup_logs $ Logs_cli.level ())

let seed_arg =
  let doc = "Seed for every pseudo-random stream (runs are reproducible)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let scale_arg =
  let doc = "Experiment scale: $(b,quick) (seconds) or $(b,full) (minutes)." in
  let scale_conv =
    Arg.conv
      ( (fun s ->
          match E.scale_of_string s with
          | Some v -> Ok v
          | None -> Error (`Msg (Printf.sprintf "unknown scale %S" s))),
        fun ppf s ->
          Format.pp_print_string ppf
            (match s with E.Quick -> "quick" | E.Full -> "full") )
  in
  Arg.(value & opt scale_conv E.Quick & info [ "scale" ] ~docv:"SCALE" ~doc)

(* Monotonic, not [Unix.gettimeofday]: an NTP step mid-experiment would
   otherwise corrupt (even negate) the reported duration. *)
let timed name f =
  let t0 = Ksurf.Clock.now_s () in
  let result = f () in
  Logs.info (fun m ->
      m "%s finished in %.1fs" name (Ksurf.Clock.elapsed_s ~since:t0));
  result

(* --- parallel sweeps --------------------------------------------------- *)

let jobs_arg =
  let doc =
    "Worker domains for sweep cells.  Results merge in canonical order, \
     so any $(docv) produces bit-identical output; falls back to \
     $(b,KSURF_JOBS), then to the machine's recommended domain count \
     minus one."
  in
  (* No cmdliner ~env here on purpose: cmdliner would refuse a
     malformed KSURF_JOBS with a hard CLI error, whereas the shared
     precedence rule (Pool.resolve_jobs) warns on stderr and degrades
     to the machine default — same behaviour as bench/main.exe. *)
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* Pool.resolve_jobs owns the precedence rule: the flag when given,
   else KSURF_JOBS, else the machine default. *)
let with_pool jobs f =
  Ksurf.Pool.with_pool ~jobs:(Ksurf.Pool.resolve_jobs ?cli:jobs ()) f

(* --- resumable sweeps ------------------------------------------------- *)

let journal_arg =
  let doc =
    "Journal completed sweep cells into $(docv) (atomic writes) so an \
     interrupted run can be picked up with $(b,--resume)."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let resume_arg =
  let doc =
    "Skip cells already recorded in the $(b,--journal) file instead of \
     starting the sweep over."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

(* Without --resume a pre-existing journal is discarded: the sweep is a
   fresh run that happens to be journalled.  All I/O goes through
   Fileio so a bad --journal path exits 3 like every other I/O
   failure, and the journal's directory entry is durable. *)
let journal_of path resume =
  match path with
  | None -> None
  | Some p ->
      Ksurf.Fileio.ensure_dir (Filename.dirname p);
      if (not resume) && Sys.file_exists p then Ksurf.Fileio.remove p;
      Some (Ksurf.Recov_journal.load ~path:p ())

(* A full disk no longer aborts a sweep: the journal defers persists
   and keeps completed cells buffered in memory.  If it is still dirty
   once the sweep is done, the results above are real but the resume
   state is not on disk — stamp the run degraded and exit 3. *)
let finish_journal = function
  | None -> ()
  | Some j ->
      Ksurf.Recov_journal.flush j;
      if Ksurf.Recov_journal.persist_pending j then begin
        Format.eprintf
          "ksurf: DEGRADED: %d journal persist(s) deferred%s; completed \
           cells were kept in memory but the resume state is not durable@."
          (Ksurf.Recov_journal.deferred j)
          (match Ksurf.Recov_journal.last_error j with
          | Some e -> " (" ^ e ^ ")"
          | None -> "");
        exit 3
      end

(* Every journalled study has one shape: open the journal, sweep the
   cells on the pool, print the table, optionally export it, then stamp
   the journal's durability.  Returns the result for any study-specific
   verdict. *)
let run_study name ~jobs ~journal_path ~resume ?export ?export_dir ~pp run =
  let journal = journal_of journal_path resume in
  let t =
    with_pool jobs (fun pool -> timed name (fun () -> run ~journal ~pool))
  in
  Format.printf "%a@." pp t;
  (match (export, export_dir) with
  | Some export, Some dir ->
      List.iter (Format.printf "wrote %s@.") (export ~dir t)
  | _ -> ());
  finish_journal journal;
  t

let export_arg file =
  let doc = Printf.sprintf "Write %s into $(docv) (study mode only)." file in
  Arg.(value & opt (some string) None & info [ "export" ] ~docv:"DIR" ~doc)

(* A comma-separated list flag over a closed set of names; an unknown
   name is a parse error (exit 2).  Empty means "the study's default". *)
let names_arg name ~docv ~doc values =
  Arg.(value & opt (list (enum values)) [] & info [ name ] ~docv ~doc)

let list_opt = function [] -> None | l -> Some l

(* --- gates ------------------------------------------------------------- *)

module A = Ksurf.Analysis

(* A gate's workload, run twice under the sanitizers: lockdep and
   invariants on the first run, the determinism probe on both. *)
let sanitized name run = timed name (fun () -> A.Sanitizer.double_run ~run ())

(* [fail_if cond fmt ...] is [Some message] when [cond] holds: one
   accounting check of a gate. *)
let fail_if cond fmt =
  Format.kasprintf (fun m -> if cond then Some m else None) fmt

(* The ending every gate shares: the replay line, then FAIL lines and
   findings (exit 1 on either), else the [ok] line. *)
let finish_gate ~replay ?(failures = []) ~ok findings =
  Format.printf "  %a@." A.Determinism.pp_replay replay;
  List.iter (Format.printf "  FAIL: %s@.") failures;
  List.iter (Format.printf "  %a@." A.Finding.pp) findings;
  if failures <> [] || findings <> [] then exit 1;
  Format.printf "  no findings: %s@." ok

(* The smoke gates' workload: a tiny seeded corpus. *)
let smoke_corpus ~seed target_programs =
  (Ksurf.Generator.run
     ~params:
       { Ksurf.Generator.default_params with Ksurf.Generator.seed; target_programs }
     ())
    .Ksurf.Generator.corpus

(* --- corpus ---------------------------------------------------------- *)

let gen_corpus seed scale calls output () =
  let corpus =
    match calls with
    | None -> E.default_corpus ~seed scale
    | Some target_calls ->
        (Ksurf.Generator.run
           ~params:
             {
               Ksurf.Generator.default_params with
               Ksurf.Generator.seed;
               target_calls = Some target_calls;
             }
           ())
          .Ksurf.Generator.corpus
  in
  Format.printf "%a@." Ksurf.Corpus.pp_stats corpus;
  match output with
  | None -> ()
  | Some path ->
      Ksurf.Corpus.save corpus path;
      Format.printf "corpus written to %s@." path

let gen_corpus_cmd =
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the corpus to $(docv).")
  in
  let calls =
    Arg.(
      value
      & opt (some int) None
      & info [ "calls" ] ~docv:"N"
          ~doc:
            "Paper-scale mode: grow the corpus to at least $(docv) call \
             sites after coverage saturates (the paper used 27408).")
  in
  Cmd.v
    (Cmd.info "gen-corpus" ~doc:"Generate a coverage-guided syscall corpus")
    Term.(const gen_corpus $ seed_arg $ scale_arg $ calls $ output $ logs_term)

let envs =
  [
    ("native", Ksurf.Env.Native);
    ("multikernel", Ksurf.Env.Multikernel);
    ("kvm", Ksurf.Env.Kvm Ksurf.Virt_config.default);
    ("firecracker", Ksurf.Env.Kvm Ksurf.Lightweight.firecracker);
    ("kata", Ksurf.Env.Kvm Ksurf.Lightweight.kata);
    ("nabla", Ksurf.Env.Kvm Ksurf.Lightweight.nabla);
    ("gvisor", Ksurf.Env.Kvm Ksurf.Lightweight.gvisor);
    ("docker", Ksurf.Env.Docker);
  ]

(* --env NAME: the deployment, kept with its name for reports.  An
   unknown name is a parse error (exit 2). *)
let env_arg =
  let names = String.concat " | " (List.map fst envs) in
  let parse s =
    match List.assoc_opt s envs with
    | Some kind -> Ok (s, kind)
    | None -> Error (`Msg (Printf.sprintf "unknown environment %S (%s)" s names))
  in
  let env_conv = Arg.conv (parse, fun ppf (s, _) -> Format.pp_print_string ppf s) in
  Arg.(
    value
    & opt env_conv ("native", Ksurf.Env.Native)
    & info [ "env" ] ~docv:"ENV" ~doc:names)

(* Replay an arbitrary corpus on an arbitrary deployment. *)
let run_corpus seed file (env_name, kind) units iterations () =
  match Ksurf.Corpus.load file with
  | Error e ->
      Format.eprintf "cannot load %s: %s@." file e;
      exit 1
  | Ok corpus ->
      let engine = Ksurf.Engine.create ~seed () in
      let env = Ksurf.Env.deploy ~engine kind (Ksurf.Partition.table1 units) in
      let params =
        { Ksurf.Harness.iterations; warmup_iterations = max 1 (iterations / 10) }
      in
      let result = Ksurf.Harness.run ~env ~corpus ~params () in
      let stats = Ksurf.Study.site_stats result in
      Format.printf
        "corpus %s on %s x%d: %d sites, %d invocations, %s of virtual time@.@."
        file env_name units (Array.length stats)
        (Ksurf.Harness.total_invocations result)
        (Ksurf.Report.duration_ns result.Ksurf.Harness.wall_time_ns);
      Format.printf "stat   %s@." Ksurf.Buckets.header;
      List.iter
        (fun (name, stat) ->
          Format.printf "%-6s %a@." name Ksurf.Buckets.pp
            (Ksurf.Study.bucket_row stat stats))
        [ ("median", Ksurf.Study.Median); ("p99", Ksurf.Study.P99);
          ("max", Ksurf.Study.Max) ]

let run_corpus_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"CORPUS" ~doc:"Corpus file from gen-corpus.")
  in
  let units =
    Arg.(
      value & opt int 1
      & info [ "units" ] ~docv:"N"
          ~doc:"Isolation units (a Table-1 row: 1,2,4,8,16,32,64).")
  in
  let iterations =
    Arg.(
      value & opt int 10
      & info [ "iterations" ] ~docv:"N" ~doc:"Measured corpus repetitions.")
  in
  Cmd.v
    (Cmd.info "run-corpus"
       ~doc:"Replay a corpus file on a chosen deployment and print its \
             latency breakdown")
    Term.(
      const run_corpus $ seed_arg $ file $ env_arg $ units $ iterations
      $ logs_term)

(* --- analyze ---------------------------------------------------------- *)

(* Sanitizer suite: lockdep lock-order validation, determinism replay,
   and engine invariant checks over a stock scenario.  Exits 1 on any
   finding so it can gate CI. *)
let analyze seed scenario checks csv () =
  match A.Scenarios.of_string scenario with
  | None ->
      Format.eprintf "unknown scenario %S (%s)@." scenario
        (String.concat "|" (List.map A.Scenarios.to_string A.Scenarios.all));
      exit 2
  | Some sc -> (
      match A.Sanitizer.checks_of_string checks with
      | Error bad ->
          Format.eprintf "unknown check %S (lockdep|determinism|invariants)@."
            bad;
          exit 2
      | Ok [] ->
          Format.eprintf "no checks selected@.";
          exit 2
      | Ok selected ->
          let outcome =
            timed "analyze" (fun () ->
                A.Sanitizer.run ~scenario:sc ~seed ~checks:selected ())
          in
          Format.printf "%a@." A.Sanitizer.pp_outcome outcome;
          (match csv with
          | None -> ()
          | Some path ->
              (* I/O trouble surfaces as Fileio.Io_error and exits 3
                 through the shared handler, like every subcommand. *)
              A.Finding.export_csv ~path outcome.A.Sanitizer.findings;
              Format.printf "findings written to %s@." path);
          if outcome.A.Sanitizer.findings <> [] then exit 1)

let analyze_cmd =
  let scenario =
    Arg.(
      value & opt string "varbench"
      & info [ "scenario" ] ~docv:"SCENARIO"
          ~doc:
            "Scenario to instrument: $(b,varbench), $(b,tailbench), $(b,bsp), \
             $(b,faulted-varbench), $(b,faulted-tailbench) (the same \
             workloads under an armed kfault plan), \
             $(b,specialized-varbench) (kspec-pruned multikernel deployment \
             with the Enforce allowlist installed), $(b,recovered-bsp) (the \
             supervised BSP synthesis failing over under the crashy plan), \
             or $(b,inversion) (a deliberate lock-order inversion that \
             self-tests the analyzer).")
  in
  let checks =
    Arg.(
      value
      & opt string "lockdep,determinism,invariants"
      & info [ "check" ] ~docv:"CHECKS"
          ~doc:
            "Comma-separated checks to run: $(b,lockdep), $(b,determinism), \
             $(b,invariants).")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Export the findings to $(docv).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the sanitizer suite (lockdep, determinism, invariants) over a \
          stock scenario; exit nonzero on any finding")
    Term.(const analyze $ seed_arg $ scenario $ checks $ csv $ logs_term)

(* --- inject ----------------------------------------------------------- *)

(* Fault-injection driver: arm a kfault plan over a varbench deployment,
   run it twice under the sanitizers, and report the injection counters
   and the replay hashes.  Exits 1 on any finding or hash divergence —
   the [--smoke] form is the `make check` gate. *)
let inject seed plan_name (env_name, kind) units intensity smoke () =
  let plan =
    match Ksurf.Fault_plan.preset plan_name with
    | Some p -> p
    | None -> (
        match Ksurf.Fault_plan.load plan_name with
        | Ok p -> p
        | Error e ->
            Format.eprintf
              "cannot load plan %S: %s (presets: %s)@." plan_name e
              (String.concat ", " (List.map fst Ksurf.Fault_plan.presets));
            exit 2)
  in
  let plan =
    if intensity = 1.0 then plan else Ksurf.Fault_plan.scale intensity plan
  in
  let corpus =
    if smoke then smoke_corpus ~seed 4 else E.default_corpus ~seed E.Quick
  in
  let params =
    { Ksurf.Harness.iterations = (if smoke then 2 else 6); warmup_iterations = 1 }
  in
  let (result, stats, injections), replay, findings =
    sanitized "inject" (fun ~on_engine ->
        let engine = Ksurf.Engine.create ~seed () in
        on_engine engine;
        let env = Ksurf.Env.deploy ~engine kind (Ksurf.Partition.table1 units) in
        let kf = Ksurf.Kfault.arm ~env ~plan ~seed () in
        let result =
          Ksurf.Harness.run ~env ~corpus ~params ~straggler_timeout_ns:5e9 ()
        in
        Ksurf.Kfault.disarm kf;
        (result, Ksurf.Kfault.stats kf, Ksurf.Kfault.total_injections kf))
  in
  Format.printf "inject plan=%s dose=%.2f env=%s units=%d seed=%d@."
    plan.Ksurf.Fault_plan.name intensity env_name units seed;
  Format.printf
    "  %d sites, %d invocations, %s of virtual time, %d injections@."
    (Array.length result.Ksurf.Harness.sites)
    (Ksurf.Harness.total_invocations result)
    (Ksurf.Report.duration_ns result.Ksurf.Harness.wall_time_ns)
    injections;
  Format.printf "  %a@." Ksurf.Kfault.pp_stats stats;
  Format.printf "  harness: %d retries, %d abandoned, %s@."
    result.Ksurf.Harness.transient_retries
    result.Ksurf.Harness.abandoned_calls
    (if result.Ksurf.Harness.degraded then
       Printf.sprintf "DEGRADED (%d/%d ranks survived)"
         result.Ksurf.Harness.survivors result.Ksurf.Harness.ranks
     else "all ranks survived");
  finish_gate ~replay ~ok:"faulted run is deterministic and clean" findings

let inject_cmd =
  let plan =
    Arg.(
      value & opt string "mixed"
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Fault plan: a preset name ($(b,syscalls), $(b,storms), \
             $(b,preempt), $(b,mixed), $(b,crashy)) or a plan file path.")
  in
  let units =
    Arg.(
      value & opt int 2
      & info [ "units" ] ~docv:"N"
          ~doc:"Isolation units (a Table-1 row: 1,2,4,8,16,32,64).")
  in
  let intensity =
    Arg.(
      value & opt float 1.0
      & info [ "intensity" ] ~docv:"K"
          ~doc:"Scale the plan's dose by $(docv) (see Fault_plan.scale).")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Tiny corpus and iteration count: the CI gate configuration.")
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:
         "Run a fault-injected varbench deployment twice; verify the \
          injections replay bit-identically and pass lockdep/invariants; \
          exit nonzero on any finding")
    Term.(
      const inject $ seed_arg $ plan $ env_arg $ units $ intensity $ smoke
      $ logs_term)

(* --- specialize -------------------------------------------------------- *)

(* kspec driver.  Default form runs the specialization study (stock
   shared native vs per-tenant specialized kernels vs kvm-64 on the same
   fs-restricted workload).  [--smoke] is the `make check` gate: run
   the specialized deployment twice under the sanitizers; a policy
   denial (the allowlist matches the corpus, so any denial is a wiring
   bug), a replay divergence or any sanitizer finding exits nonzero. *)
let specialize seed scale smoke export_dir journal_path resume jobs () =
  if smoke then begin
    let corpus =
      let full = smoke_corpus ~seed 8 in
      match Ksurf.Profile.restrict full ~keep:E.Specialize.retained with
      | Some c -> c
      | None -> full
    in
    let spec =
      Ksurf.Specializer.compile
        (Ksurf.Profile.of_corpus ~name:"specialize-smoke" corpus)
    in
    let params = { Ksurf.Harness.iterations = 2; warmup_iterations = 1 } in
    let (result, denials), replay, findings =
      sanitized "specialize" (fun ~on_engine ->
          let engine = Ksurf.Engine.create ~seed () in
          on_engine engine;
          let env =
            Ksurf.Env.deploy ~engine
              ~kernel_config:(Ksurf.Specializer.kernel_config spec)
              Ksurf.Env.Multikernel
              (Ksurf.Partition.equal_split ~units:2 ~total_cores:8
                 ~total_mem_mb:8192)
          in
          Ksurf.Specializer.install_all env spec;
          let result = Ksurf.Harness.run ~env ~corpus ~params () in
          let denials =
            List.init (Ksurf.Env.rank_count env) (fun rank ->
                Ksurf.Specializer.denials env ~rank)
          in
          (result, List.fold_left ( + ) 0 denials))
    in
    Format.printf "specialize smoke seed=%d@." seed;
    Format.printf "  %a@." Ksurf.Kspec.pp spec;
    Format.printf "  %d sites, %d invocations, %s of virtual time@."
      (Array.length result.Ksurf.Harness.sites)
      (Ksurf.Harness.total_invocations result)
      (Ksurf.Report.duration_ns result.Ksurf.Harness.wall_time_ns);
    finish_gate ~replay
      ~failures:
        (Option.to_list
           (fail_if (denials > 0)
              "%d policy denials (%d dropped by the harness) — the \
               allowlist must cover its own profile"
              denials result.Ksurf.Harness.denied_calls))
      ~ok:"specialized run is deterministic, clean, zero denials" findings
  end
  else
    ignore
      (run_study "specialize" ~jobs ~journal_path ~resume
         ~export:Ksurf.Export.specialize ?export_dir ~pp:E.Specialize.pp
         (fun ~journal ~pool -> E.Specialize.run ~seed ~scale ?journal ~pool ()))

let specialize_cmd =
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Gate mode: double-run a specialized deployment under the \
             sanitizers; exit nonzero on denials, divergence or findings.")
  in
  Cmd.v
    (Cmd.info "specialize"
       ~doc:
         "kspec study: per-tenant specialized kernels (multikernel) vs shared native vs kvm-64 \
          on the same fs-restricted workload")
    Term.(
      const specialize $ seed_arg $ scale_arg $ smoke
      $ export_arg "specialize.csv" $ journal_arg $ resume_arg $ jobs_arg
      $ logs_term)

(* --- staticcheck ------------------------------------------------------ *)

(* kstat driver.  Everything is derived from the syscall table without
   running the simulator; [--spec] additionally generates the named
   stock workload's corpus (cheap) to verify its profile-derived
   allowlist.  Any finding — a lock-order cycle, an allowlist gap or
   slack, pruned-machinery hazard — exits nonzero, so `make
   staticcheck` gates on it. *)
let staticcheck seed scale table locks interference spec_workload csv_dir () =
  let module S = Ksurf.Staticcheck in
  let show_all =
    (not table) && (not locks) && (not interference) && spec_workload = None
  in
  let findings = ref [] in
  if table || show_all then begin
    let fps = Ksurf.Footprint.all () in
    Format.printf "static footprints (%d syscalls):@." (List.length fps);
    List.iter (fun fp -> Format.printf "  %a@." Ksurf.Footprint.pp fp) fps
  end;
  if locks || show_all then begin
    let graph = Ksurf.Lockgraph.of_table () in
    Format.printf "%a@." Ksurf.Lockgraph.pp graph;
    findings := !findings @ Ksurf.Lockgraph.cycles graph
  end;
  if interference || show_all then
    Format.printf "%a@." Ksurf.Interference.pp (Ksurf.Interference.of_table ());
  (match spec_workload with
  | None -> ()
  | Some w ->
      let name, keep, corpus =
        match w with
        | "full" -> ("full", Ksurf.Category.all, E.default_corpus ~seed E.Quick)
        | "fs" ->
            ("fs", E.Specialize.retained, E.Specialize.workload ~seed ~scale ())
        | other ->
            Format.eprintf "unknown workload %S (expected full or fs)@." other;
            exit 2
      in
      let profile = Ksurf.Profile.of_corpus ~name corpus in
      let spec = Ksurf.Specializer.compile profile in
      let config = Ksurf.Specializer.kernel_config spec in
      let report =
        S.verify ~workload:name ~keep ~profile ~spec ~config ()
      in
      Format.printf "%a@." S.pp_spec_report report;
      findings := !findings @ report.S.findings);
  (match csv_dir with
  | None -> ()
  | Some dir ->
      List.iter
        (fun p -> Logs.app (fun m -> m "wrote %s" p))
        (S.export_csv ~dir ()));
  if !findings <> [] then begin
    Format.printf "staticcheck: %d finding(s)@." (List.length !findings);
    exit 1
  end

let staticcheck_cmd =
  let table =
    Arg.(
      value & flag
      & info [ "table" ] ~doc:"Print the per-call static footprint table.")
  in
  let locks =
    Arg.(
      value & flag
      & info [ "locks" ]
          ~doc:
            "Print the static lock-order graph and certify it cycle-free \
             (exit nonzero on a potential-deadlock cycle).")
  in
  let interference =
    Arg.(
      value & flag
      & info [ "interference" ]
          ~doc:
            "Print the static interference matrix: call pairs that can \
             contend on the same instance-global lock.")
  in
  let spec_workload =
    Arg.(
      value
      & opt (some string) None
      & info [ "spec" ] ~docv:"WORKLOAD"
          ~doc:
            "Verify the profile-derived allowlist of a stock workload \
             ($(b,full) or $(b,fs)): flag gaps, slack and pruned-machinery \
             hazards, and print static vs dynamic surface area.")
  in
  let csv_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR"
          ~doc:
            "Write static_footprints.csv, static_lock_graph.csv and \
             static_interference.csv into $(docv).")
  in
  Cmd.v
    (Cmd.info "staticcheck"
       ~doc:
         "kstat: static footprints, lock-order certification, interference \
          matrix and allowlist verification over the syscall model — no \
          simulation involved; exits nonzero on findings")
    Term.(
      const staticcheck $ seed_arg $ scale_arg $ table $ locks $ interference
      $ spec_workload $ csv_dir $ logs_term)

(* --- experiments ------------------------------------------------------ *)

let experiment_cmd name ~doc run =
  let go seed scale jobs () =
    with_pool jobs (fun pool -> timed name (fun () -> run ~seed ~scale ~pool))
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const go $ seed_arg $ scale_arg $ jobs_arg $ logs_term)

(* One subcommand per Experiments.tables entry that has no study
   command of its own. *)
let table_cmd (t : E.table) =
  experiment_cmd t.E.name ~doc:t.E.doc (fun ~seed ~scale ~pool ->
      t.E.render ~seed ~scale
        ~corpus:(lazy (E.default_corpus ~seed scale))
        ~pool Format.std_formatter)

let all_cmd =
  experiment_cmd "all" ~doc:"Run every experiment in sequence"
    (fun ~seed ~scale ~pool ->
      let corpus = lazy (E.default_corpus ~seed scale) in
      List.iteri
        (fun i (t : E.table) ->
          if i > 0 then Format.printf "@.";
          t.E.render ~seed ~scale ~corpus ~pool Format.std_formatter)
        E.tables)

let dose_cmd =
  let go seed scale journal_path resume jobs () =
    ignore
      (run_study "dose" ~jobs ~journal_path ~resume ~pp:E.Dose.pp
         (fun ~journal ~pool -> E.Dose.run ~seed ~scale ?journal ~pool ()))
  in
  Cmd.v
    (Cmd.info "dose" ~doc:"Dose-response: fault-intensity sensitivity sweep")
    Term.(
      const go $ seed_arg $ scale_arg $ journal_arg $ resume_arg $ jobs_arg
      $ logs_term)

(* --- recover ----------------------------------------------------------- *)

(* krecov driver.  Default form runs the recovery study (crash rate x
   policy on the supervised 64-node BSP synthesis).  [--soak] is the
   chaos gate for `make check`/CI: every policy must survive the
   "crashy" preset plus random crashes without wedging, and a run
   killed mid-sweep must resume from its checkpoint bit-identically. *)
let recover seed scale soak export_dir journal_path resume jobs () =
  let module S = Ksurf.Supervisor in
  if soak then begin
    let corpus = smoke_corpus ~seed 4 in
    let cconfig =
      {
        Ksurf.Cluster.default_config with
        Ksurf.Cluster.nodes_simulated = 1;
        sim_iterations_per_node = 8;
        warmup_iterations = 1;
        requests_per_iteration = 8;
        seed;
      }
    in
    let app =
      match Ksurf.Apps.by_name "silo" with
      | Some a -> a
      | None -> List.hd Ksurf.Apps.all
    in
    let kind = Ksurf.Env.Kvm Ksurf.Virt_config.default in
    let pool =
      Ksurf.Cluster.pool ~app ~kind ~contended:false ~config:cconfig
        ~noise_corpus:corpus ()
    in
    let plan =
      match Ksurf.Fault_plan.preset "crashy" with
      | Some p -> p
      | None -> assert false
    in
    let base =
      {
        S.default_config with
        S.nodes = cconfig.Ksurf.Cluster.nodes_total;
        iterations = 10;
        barrier_cost_ns =
          Ksurf.Cluster.barrier_cost_for ~kind
            ~nodes_total:cconfig.Ksurf.Cluster.nodes_total;
        crash_rate = 0.02;
        seed;
      }
    in
    Format.printf "recover soak seed=%d: crashy preset + 2%% random crashes@."
      seed;
    let failed = ref false in
    List.iter
      (fun policy ->
        let o =
          timed (S.policy_name policy) (fun () ->
              S.run ~pool ~plan ~config:{ base with S.policy } ())
        in
        let ok = o.S.supersteps = base.S.iterations in
        if not ok then failed := true;
        Format.printf
          "  %-11s %d/%d supersteps, %.3fs, %d crashes, %d restarts, %d \
           backups, %d deaths, %d transitions — %s@."
          o.S.policy o.S.supersteps base.S.iterations (o.S.runtime_ns /. 1e9)
          o.S.crashes o.S.restarts o.S.backups o.S.deaths o.S.transitions
          (if ok then "ok" else "WEDGED"))
      [ S.Survivors; S.Readmit; S.Speculative ];
    (* Kill-and-resume round-trip: a run killed after 3 supersteps and
       resumed from its checkpoint must finish bit-identically to the
       uninterrupted run. *)
    let ckpt = Filename.temp_file "ksurf-soak" ".ckpt" in
    Sys.remove ckpt;
    let config =
      {
        base with
        S.policy = S.Readmit;
        checkpoint_interval = 2;
        checkpoint_path = Some ckpt;
      }
    in
    let full = S.run ~pool ~plan ~config () in
    Sys.remove ckpt;
    ignore (S.run ~pool ~plan ~config ~kill_after:3 ());
    let resumed = S.run ~pool ~plan ~config ~resume_from:ckpt () in
    if Sys.file_exists ckpt then Sys.remove ckpt;
    let identical =
      full.S.runtime_ns = resumed.S.runtime_ns
      && full.S.crashes = resumed.S.crashes
      && full.S.restarts = resumed.S.restarts
      && full.S.transitions = resumed.S.transitions
      && full.S.supersteps = resumed.S.supersteps
    in
    if not identical then failed := true;
    Format.printf
      "  kill-and-resume: %.0f vs %.0f ns, %d vs %d transitions (resumed \
       from superstep %d) — %s@."
      full.S.runtime_ns resumed.S.runtime_ns full.S.transitions
      resumed.S.transitions resumed.S.resumed_from
      (if identical then "identical" else "DIVERGENT");
    if !failed then exit 1;
    Format.printf "  soak clean: every policy completed, resume is exact@."
  end
  else
    ignore
      (run_study "recover" ~jobs ~journal_path ~resume
         ~export:Ksurf.Export.recover ?export_dir ~pp:E.Recover.pp
         (fun ~journal ~pool -> E.Recover.run ~seed ~scale ?journal ~pool ()))

let recover_cmd =
  let soak =
    Arg.(
      value & flag
      & info [ "soak" ]
          ~doc:
            "Chaos gate: run every recovery policy under the crashy preset \
             plus random crashes, then verify a killed run resumes from its \
             checkpoint bit-identically; exit nonzero on any wedge or \
             divergence.")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "krecov study: crash rate x recovery policy on the supervised \
          64-node BSP synthesis")
    Term.(
      const recover $ seed_arg $ scale_arg $ soak $ export_arg "recover.csv"
      $ journal_arg $ resume_arg $ jobs_arg $ logs_term)

(* --- tenancy ----------------------------------------------------------- *)

(* ktenant driver.  Default form sweeps (policy x tenants x churn)
   fleet cells and prints the per-cell table plus the SLO frontier.
   [--smoke] is the `make check` gate: double-run a small churny
   adaptive fleet under the sanitizers, then sanity-check the SLO
   accounting; any replay divergence, sanitizer finding or accounting
   inconsistency exits nonzero. *)
let tenancy seed scale smoke tenants churns policies export_dir journal_path
    resume jobs () =
  let module F = Ksurf.Fleet in
  let module P = Ksurf.Tenant_policy in
  if smoke then begin
    let cfg =
      {
        F.default_config with
        F.tenants = 24;
        churn_per_day = 16.0;
        policy = P.Adaptive;
        seed;
        host_cores = 16;
        day_ns = 4e8;
        days = 1.0;
        mean_rate_per_s = 40.0;
        epoch_ns = 5e7;
      }
    in
    let r, replay, findings =
      sanitized "tenancy" (fun ~on_engine ->
          timed "tenancy fleet" (fun () -> F.run ~on_engine cfg))
    in
    Format.printf "tenancy smoke seed=%d: %d tenants, churn %.0f/day, %s@."
      seed cfg.F.tenants cfg.F.churn_per_day (P.name cfg.F.policy);
    Format.printf
      "  %d requests, %d arrivals, %d departures, %d cgroup storms \
       (%d create / %d destroy, peak %d live), %d migrations@."
      r.F.completed r.F.arrivals r.F.departures
      (r.F.cgroup_creates + r.F.cgroup_destroys)
      r.F.cgroup_creates r.F.cgroup_destroys r.F.peak_cgroups r.F.migrations;
    (* SLO accounting must be internally consistent whatever the
       latencies came out to. *)
    let failures =
      List.filter_map Fun.id
        [
          fail_if (r.F.completed <= 0) "no requests completed";
          fail_if
            (r.F.attainment < 0.0 || r.F.attainment > 1.0)
            "attainment %.3f outside [0,1]" r.F.attainment;
          fail_if (r.F.slo_met > r.F.measured) "slo_met %d > measured %d"
            r.F.slo_met r.F.measured;
          fail_if
            (r.F.measured > cfg.F.tenants + r.F.arrivals)
            "measured %d exceeds tenants ever admitted" r.F.measured;
          fail_if
            (r.F.cgroup_destroys > r.F.cgroup_creates)
            "cgroup destroys %d > creates %d" r.F.cgroup_destroys
            r.F.cgroup_creates;
          fail_if (r.F.replica_imbalance <> 0)
            "replica imbalance %d: live replicas diverged from autoscaler \
             targets"
            r.F.replica_imbalance;
          fail_if
            (r.F.departures > r.F.arrivals + cfg.F.tenants)
            "departures %d exceed population" r.F.departures;
        ]
    in
    finish_gate ~replay ~failures
      ~ok:"churny fleet is deterministic, clean, accounting consistent"
      findings
  end
  else
    ignore
      (run_study "tenancy" ~jobs ~journal_path ~resume
         ~export:Ksurf.Export.tenancy ?export_dir ~pp:E.Tenancy.pp
         (fun ~journal ~pool ->
           E.Tenancy.run ~seed ~scale ?tenants:(list_opt tenants)
             ?churns:(list_opt churns) ?policies:(list_opt policies) ?journal
             ~pool ()))

let tenancy_cmd =
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Gate mode: double-run a churny adaptive fleet under the \
             sanitizers and check the SLO accounting; exit nonzero on \
             divergence, findings or inconsistency.")
  in
  let tenants =
    Arg.(
      value
      & opt (list int) []
      & info [ "tenants" ] ~docv:"N,..."
          ~doc:"Tenant counts to sweep (default depends on --scale).")
  in
  let churns =
    Arg.(
      value
      & opt (list float) []
      & info [ "churn" ] ~docv:"R,..."
          ~doc:
            "Per-tenant churn rates to sweep, in lifecycle events per \
             tenant per virtual day (default depends on --scale).")
  in
  let policies =
    names_arg "policy" ~docv:"P,..."
      ~doc:
        "Placement policies to sweep: $(b,native-shared), $(b,docker), \
         $(b,kvm), $(b,multikernel) or $(b,adaptive) (default: all)."
      (List.map (fun p -> (Ksurf.Tenant_policy.name p, p)) Ksurf.Tenant_policy.all)
  in
  Cmd.v
    (Cmd.info "tenancy"
       ~doc:
         "ktenant study: fleet-scale multi-tenant serving under churn and \
          diurnal load — placement policy x tenant count x churn rate, \
          with per-tenant p99 SLO autoscaling")
    Term.(
      const tenancy $ seed_arg $ scale_arg $ smoke $ tenants $ churns
      $ policies $ export_arg "tenancy.csv" $ journal_arg $ resume_arg
      $ jobs_arg $ logs_term)

(* --- drift ------------------------------------------------------------- *)

(* kadapt driver.  Default form sweeps (policy x dose) driftbench cells
   and prints the dose-response table (false-positive ENOSYS vs retained
   surface area vs time-to-reconverge).  [--smoke] is the `make check`
   gate: double-run a small adaptive cell under the sanitizers, count
   every policy hot-swap transition off the probe stream, cross-check
   the controller accounting, and run the same cell under the static
   policy to assert the headline dominance; any divergence, sanitizer
   finding or accounting inconsistency exits nonzero. *)
let drift seed scale smoke doses policies export_dir journal_path resume jobs
    () =
  let module D = Ksurf.Driftbench in
  if smoke then begin
    let cfg policy =
      {
        D.default_config with
        D.policy;
        dose = 2.0;
        epochs = 24;
        programs_per_epoch = 12;
        corpus_programs = 16;
        drift_at_ns = 8_000_000.0;
        seed;
      }
    in
    let policy_transitions = ref 0 in
    let count_transitions = function
      | Ksurf.Engine.Rank_transition { to_state; _ }
        when to_state = "audit" || to_state = "enforce" ->
          incr policy_transitions
      | _ -> ()
    in
    let r, replay, findings =
      sanitized "drift" (fun ~on_engine ->
          policy_transitions := 0;
          timed "drift cell" (fun () ->
              D.run
                ~on_engine:(fun engine ->
                  on_engine engine;
                  Ksurf.Engine.add_probe engine count_transitions)
                (cfg D.Adaptive)))
    in
    let s = timed "static cell" (fun () -> D.run (cfg D.Static)) in
    Format.printf "drift smoke seed=%d: %d ranks, dose %.1f, adaptive@." seed
      r.D.ranks r.D.dose;
    Format.printf
      "  %d calls (%d post-drift), %d denied, fp %.4f, surface reduction \
       %.3f, %d promotions / %d demotions / %d swaps, reconverge %s@."
      r.D.calls r.D.calls_post_drift r.D.denied r.D.fp_rate r.D.reduction
      r.D.promotions r.D.demotions r.D.swaps
      (match r.D.reconverge_ns with
      | None -> "n/a"
      | Some ns -> Printf.sprintf "%.0f ns" ns);
    (* The controller choreography must be internally consistent, every
       hot-swap probe-visible, and the headline claim must hold even at
       smoke scale: adaptive strictly beats static on post-drift false
       positives while retaining most of its surface reduction. *)
    let failures =
      List.filter_map Fun.id
        [
          fail_if (r.D.calls <= 0) "no calls issued";
          fail_if (r.D.drifts <> 1) "expected exactly 1 workload drift, saw %d"
            r.D.drifts;
          fail_if (r.D.drift_at_ns = None) "drift never fired (sink not called)";
          fail_if
            (r.D.fp_rate < 0.0 || r.D.fp_rate > 1.0)
            "fp rate %.4f outside [0,1]" r.D.fp_rate;
          fail_if
            (r.D.denied_post_drift > r.D.denied)
            "post-drift denials %d exceed total %d" r.D.denied_post_drift
            r.D.denied;
          fail_if
            (r.D.calls_post_drift > r.D.calls)
            "post-drift calls %d exceed total %d" r.D.calls_post_drift
            r.D.calls;
          fail_if
            (r.D.swaps <> r.D.ranks + r.D.promotions + r.D.demotions)
            "swap count %d inconsistent: %d ranks + %d promotions + %d \
             demotions"
            r.D.swaps r.D.ranks r.D.promotions r.D.demotions;
          fail_if
            (!policy_transitions <> r.D.swaps)
            "probe saw %d policy transitions, env counted %d swaps"
            !policy_transitions r.D.swaps;
          fail_if
            (r.D.promotions < r.D.ranks)
            "only %d promotions across %d ranks: some rank never left audit"
            r.D.promotions r.D.ranks;
          fail_if (r.D.demotions < 1) "dose %.1f drift triggered no demotion"
            r.D.dose;
          fail_if (s.D.denied = 0) "static policy denied nothing under drift";
          fail_if
            (r.D.fp_rate >= s.D.fp_rate)
            "adaptive fp %.4f does not beat static %.4f" r.D.fp_rate
            s.D.fp_rate;
          fail_if
            (s.D.reduction > 0.0 && r.D.reduction < 0.4 *. s.D.reduction)
            "adaptive retains only %.0f%% of static's surface reduction"
            (100.0 *. r.D.reduction /. s.D.reduction);
        ]
    in
    finish_gate ~replay ~failures
      ~ok:
        "adaptive cell is deterministic, clean, accounting consistent, \
         dominates static"
      findings
  end
  else
    ignore
      (run_study "drift" ~jobs ~journal_path ~resume ~export:Ksurf.Export.drift
         ?export_dir ~pp:E.Drift.pp (fun ~journal ~pool ->
           E.Drift.run ~seed ~scale ?doses:(list_opt doses)
             ?policies:(list_opt policies) ?journal ~pool ()))

let drift_cmd =
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Gate mode: double-run a small adaptive driftbench cell under \
             the sanitizers, cross-check the controller accounting against \
             the probe stream, and assert adaptive dominates static; exit \
             nonzero on divergence, findings or inconsistency.")
  in
  let doses =
    Arg.(
      value
      & opt (list float) []
      & info [ "dose" ] ~docv:"D,..."
          ~doc:
            "Drift doses to sweep; the injected mix shift is dose x 0.25 \
             (default: 0,1,2,3).")
  in
  let policies =
    names_arg "policy" ~docv:"P,..."
      ~doc:
        "Policies to sweep: $(b,static), $(b,audit) or $(b,adaptive) \
         (default: all)."
      (("audit-only", Ksurf.Driftbench.Audit_only)
      :: List.map
           (fun p -> (Ksurf.Driftbench.policy_name p, p))
           Ksurf.Driftbench.all_policies)
  in
  Cmd.v
    (Cmd.info "drift"
       ~doc:
         "kadapt study: online adaptive specialization under workload drift \
          — policy x dose, tabling false-positive ENOSYS rate vs retained \
          surface area vs time-to-reconverge")
    Term.(
      const drift $ seed_arg $ scale_arg $ smoke $ doses $ policies
      $ export_arg "drift.csv" $ journal_arg $ resume_arg $ jobs_arg
      $ logs_term)

(* --- torture ------------------------------------------------------------ *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_temp_dir prefix =
  let p = Filename.temp_file prefix "" in
  Sys.remove p;
  Ksurf.Fileio.ensure_dir p;
  p

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* kdur driver.  Default form sweeps (writer path x dose) torture
   cells — ALICE-style crash-state enumeration plus live faulted runs
   with recovery — and prints the consistency table.  [--smoke] is the
   `make check` gate: the quick grid at 1 and 4 workers with
   byte-compared exports and zero tolerated violations, then the same
   durability machinery wired into a live engine workload — scenario
   cells journalled under an armed fault plan (transients, an ENOSPC
   window, a scheduled crash), double-run under the sanitizers. *)
let torture seed scale smoke doses kinds export_dir journal_path resume jobs ()
    =
  let module T = Ksurf.Torture in
  let kinds = list_opt kinds in
  if smoke then begin
    let root = fresh_temp_dir "ksurf-torture-smoke" in
    Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
    let failures = ref [] in
    let bad fmt =
      Format.kasprintf (fun m -> failures := !failures @ [ m ]) fmt
    in
    (* 1. The quick grid, twice: every cell must hold every invariant
       at every crash point, and both the cell results and the
       exported bytes must be independent of the worker count. *)
    let grid n sub =
      Ksurf.Pool.with_pool ~jobs:n (fun pool ->
          timed
            (Printf.sprintf "torture grid (%d worker%s)" n
               (if n = 1 then "" else "s"))
            (fun () ->
              E.Torture.run ~seed ~scale:E.Quick
                ~doses:(match doses with [] -> [ 0.0; 1.0 ] | l -> l)
                ?kinds
                ~scratch:(Filename.concat root sub)
                ~pool ()))
    in
    let t1 = grid 1 "grid-j1" in
    let t4 = grid 4 "grid-j4" in
    Format.printf "%a@." E.Torture.pp t1;
    List.iter
      (fun (r : T.result) ->
        if T.violations r <> 0 then
          bad "%s dose %.1f: %d consistency violations" r.T.kind r.T.dose
            (T.violations r);
        if r.T.live_runs > 0 && r.T.recovery_ok < 1.0 then
          bad "%s dose %.1f: live recovery %.2f < 1.0" r.T.kind r.T.dose
            r.T.recovery_ok)
      t1.E.Torture.cells;
    if t1.E.Torture.cells <> t4.E.Torture.cells then
      bad "cell results differ between 1 and 4 workers";
    let export sub t =
      String.concat "\x00"
        (List.map read_file (Ksurf.Export.torture ~dir:(Filename.concat root sub) t))
    in
    if export "csv-j1" t1 <> export "csv-j4" t4 then
      bad "exported CSV bytes differ between 1 and 4 workers";
    Format.printf
      "  grid: %d cells, %d crash states enumerated, %d torn files refused@."
      (List.length t1.E.Torture.cells)
      (List.fold_left (fun a (r : T.result) -> a + r.T.crash_states) 0
         t1.E.Torture.cells)
      (List.fold_left (fun a (r : T.result) -> a + r.T.torn_refused) 0
         t1.E.Torture.cells);
    (* 2. Engine integration: three varbench scenario cells, each
       completion recorded through a Recov_journal whose host I/O runs
       under an armed fault plan — recover from every injected death,
       drain every deferred persist, and replay the whole thing twice
       under the sanitizers. *)
    let plan =
      {
        Ksurf.Durplan.name = "smoke";
        actions =
          [
            Ksurf.Durplan.Transient { rate = 0.4; eintr_share = 0.5 };
            Ksurf.Durplan.Enospc_window { from_op = 4; until_op = 8 };
            Ksurf.Durplan.Crash_at { op = 2 };
          ];
      }
    in
    let cells = [ "varbench:0"; "varbench:1"; "varbench:2" ] in
    let pass = ref 0 in
    let litter_swept = ref 0 in
    let live ~on_engine =
      incr pass;
      let dir = Filename.concat root (Printf.sprintf "live-%d" !pass) in
      Ksurf.Fileio.ensure_dir dir;
      let jpath = Filename.concat dir "cells.journal" in
      let inj = Ksurf.Faultio.make ~root:dir ~seed plan in
      let executed = ref [] in
      let attempts = ref 0 in
      let completed = ref false in
      while (not !completed) && !attempts < 50 do
        incr attempts;
        match
          Ksurf.Faultio.with_faults inj (fun () ->
              litter_swept := !litter_swept + Ksurf.Fileio.sweep_tmp ~dir;
              let j = Ksurf.Recov_journal.load ~flush_every:1 ~path:jpath () in
              List.iter
                (fun cell ->
                  if not (Ksurf.Recov_journal.mem j cell) then begin
                    (* Recorded cells are never re-executed; a cell
                       whose completion died before persisting is
                       legitimately recomputed — here memoised so the
                       engine event stream stays replay-identical. *)
                    if not (List.mem cell !executed) then begin
                      A.Scenarios.run A.Scenarios.Varbench ~seed ~on_engine;
                      executed := cell :: !executed
                    end;
                    Ksurf.Recov_journal.record j cell
                  end)
                cells;
              Ksurf.Recov_journal.flush j;
              Ksurf.Recov_journal.persist_pending j)
        with
        | false -> completed := true
        | true -> () (* ENOSPC deferral: space clears as ops advance *)
        | exception Ksurf.Iohook.Crashed _ -> () (* next attempt recovers *)
      done;
      if not !completed then bad "replay %d: journal never converged" !pass;
      if List.length !executed <> List.length cells then
        bad "replay %d: %d cells executed, expected %d" !pass
          (List.length !executed) (List.length cells);
      let j = Ksurf.Recov_journal.load ~path:jpath () in
      List.iter
        (fun cell ->
          if not (Ksurf.Recov_journal.mem j cell) then
            bad "replay %d: cell %s lost" !pass cell)
        cells;
      if Ksurf.Fileio.sweep_tmp ~dir <> 0 then
        bad "replay %d: temp litter survived recovery" !pass;
      Ksurf.Faultio.stats inj
    in
    let s, replay, findings = sanitized "torture live" live in
    if s.Ksurf.Faultio.crashes < 1 then bad "scheduled crash never fired";
    if s.Ksurf.Faultio.enospc < 1 then bad "ENOSPC window never hit";
    if s.Ksurf.Faultio.transients < 1 then bad "no transient faults injected";
    Format.printf
      "  live: %d ops, %d transients, %d enospc, %d crashes, %d temp file(s) \
       swept during recovery@."
      s.Ksurf.Faultio.ops s.Ksurf.Faultio.transients s.Ksurf.Faultio.enospc
      s.Ksurf.Faultio.crashes !litter_swept;
    finish_gate ~replay ~failures:!failures
      ~ok:
        "every crash state recovers, sweeps are worker-count invariant, \
         faulted journalling is deterministic and clean"
      findings
  end
  else begin
    let scratch =
      E.Torture.default_scratch ^ "." ^ string_of_int (Unix.getpid ())
    in
    let t =
      run_study "torture" ~jobs ~journal_path ~resume
        ~export:Ksurf.Export.torture ?export_dir ~pp:E.Torture.pp
        (fun ~journal ~pool ->
          Fun.protect
            ~finally:(fun () -> rm_rf scratch)
            (fun () ->
              E.Torture.run ~seed ~scale ?doses:(list_opt doses) ?kinds
                ~scratch ?journal ~pool ()))
    in
    if E.Torture.violations t <> 0 then exit 1
  end

let torture_cmd =
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Gate mode: run the quick torture grid at 1 and 4 workers \
             (byte-compared exports, zero tolerated violations), then \
             journal live scenario cells under an armed fault plan with \
             lockdep, determinism and invariant checking; exit nonzero on \
             any violation, divergence or finding.")
  in
  let doses =
    Arg.(
      value
      & opt (list float) []
      & info [ "dose" ] ~docv:"D,..."
          ~doc:
            "Fault doses to sweep; dose scales the io-mixed plan's rates \
             and ENOSPC window, 0 is the fault-free control (default: \
             0,1,2,3).")
  in
  let kinds =
    names_arg "path" ~docv:"P,..."
      ~doc:
        "Durable writer paths to torture: $(b,journal), $(b,checkpoint), \
         $(b,export) (default: all)."
      (List.map (fun k -> (Ksurf.Torture.kind_name k, k)) Ksurf.Torture.all_kinds)
  in
  Cmd.v
    (Cmd.info "torture"
       ~doc:
         "kdur study: host-I/O fault injection and crash-consistency \
          torture — writer path x dose, enumerating every crash state and \
          recovering every live faulted run")
    Term.(
      const torture $ seed_arg $ scale_arg $ smoke $ doses $ kinds
      $ export_arg "torture.csv" $ journal_arg $ resume_arg $ jobs_arg
      $ logs_term)

let main_cmd =
  let doc =
    "reproduce 'Reducing Kernel Surface Areas for Isolation and \
     Scalability' (ICPP'19) on a simulated multicore machine"
  in
  let studies =
    [ dose_cmd; specialize_cmd; recover_cmd; tenancy_cmd; drift_cmd; torture_cmd ]
  in
  let tables =
    List.filter
      (fun (t : E.table) ->
        not (List.exists (fun c -> Cmd.name c = t.E.name) studies))
      E.tables
  in
  Cmd.group (Cmd.info "ksurf" ~version:"1.0.0" ~doc)
    ([ gen_corpus_cmd; run_corpus_cmd; analyze_cmd; inject_cmd; staticcheck_cmd ]
    @ studies
    @ List.map table_cmd tables
    @ [ all_cmd ])

(* Exit codes: 0 success, 1 the experiment found something (findings,
   divergence, a hung engine), 2 you asked for something impossible
   (bad arguments, cmdliner parse errors included), 3 the machine failed
   underneath us (full disk, bad permissions, unwritable directory). *)
let () =
  match Cmd.eval_value ~catch:false main_cmd with
  | Ok (`Ok () | `Version | `Help) -> exit 0
  | Error _ -> exit 2
  | exception Ksurf.Fileio.Io_error msg ->
      Format.eprintf "ksurf: I/O failure: %s@." msg;
      exit 3
  | exception Ksurf.Engine.Hung diag ->
      Format.eprintf "ksurf: %s@." diag;
      exit 1
