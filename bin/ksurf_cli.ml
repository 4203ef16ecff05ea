(* ksurf command-line interface: generate corpora and regenerate any of
   the paper's tables and figures from the terminal. *)

open Cmdliner
module E = Ksurf.Experiments
module A = Ksurf.Analysis
module G = Ksurf.Gates

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

(* --- numbers ----------------------------------------------------------- *)

(* An --iterations count the model would refuse (with an uncaught
   Invalid_argument) and an --intensity dose it would silently run on (a
   nan): refused while the arguments are parsed, a usage error (exit 2). *)
let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S is not a positive integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let non_negative =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && x >= 0.0 -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "%S is not a finite number >= 0" s))
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let export_arg =
  let doc = "Write the CSV export into $(docv) (created if missing)." in
  Arg.(value & opt (some string) None & info [ "export" ] ~docv:"DIR" ~doc)

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

(* --units N: a Table-1 row.  Anything else is a parse error (exit 2),
   not a partition that fails to build.  Not [Arg.enum]: it would take
   "3" as a prefix of "32". *)
let units_arg default =
  let rows = Ksurf.Partition.table1_rows in
  let parse s =
    match int_of_string_opt s with
    | Some n when List.mem n rows -> Ok n
    | _ ->
        Error
          (`Msg
             (Printf.sprintf "%S is not a Table-1 row (%s)" s
                (String.concat "," (List.map string_of_int rows))))
  in
  Arg.(
    value
    & opt (conv (parse, Format.pp_print_int)) default
    & info [ "units" ] ~docv:"N"
        ~doc:"Isolation units (a Table-1 row: 1,2,4,8,16,32,64).")

(* Replay an arbitrary corpus on an arbitrary deployment. *)
let run_corpus seed file (env_name, kind) units iterations () =
  match Ksurf.Corpus.load file with
  | Error e ->
      Format.eprintf "cannot load %s: %s@." file e;
      exit 2
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
  let iterations =
    Arg.(
      value
      & opt positive 10
      & info [ "iterations" ] ~docv:"N" ~doc:"Measured corpus repetitions.")
  in
  Cmd.v
    (Cmd.info "run-corpus"
       ~doc:"Replay a corpus file on a chosen deployment and print its \
             latency breakdown")
    Term.(
      const run_corpus $ seed_arg $ file $ env_arg $ units_arg 1 $ iterations
      $ logs_term)

(* --- analyze ---------------------------------------------------------- *)

(* The gate suite: every stock gate (or the one named by --scenario)
   double-run under lockdep, determinism and invariants, then its own
   accounting checks.  Exits 1 on any finding or FAIL line so it can
   gate CI. *)
let analyze seed scenario checks csv () =
  match A.Sanitizer.checks_of_string checks with
  | Error bad ->
      Format.eprintf "unknown check %S (lockdep|determinism|invariants)@." bad;
      exit 2
  | Ok [] ->
      Format.eprintf "no checks selected@.";
      exit 2
  | Ok selected ->
      (* --check filters the sanitizer findings; a crash always counts. *)
      let names = "crash" :: List.map A.Sanitizer.check_name selected in
      let keep (f : A.Finding.t) = List.mem f.A.Finding.check names in
      let reports =
        List.map
          (fun gate ->
            let r = timed (G.name gate) (fun () -> G.run gate ~seed) in
            { r with G.findings = List.filter keep r.G.findings })
          (match scenario with None -> G.stock | Some g -> [ g ])
      in
      List.iter (Format.printf "%a@." G.pp_report) reports;
      (match csv with
      | None -> ()
      | Some path ->
          (* I/O trouble surfaces as Fileio.Io_error and exits 3
             through the shared handler, like every subcommand. *)
          A.Finding.export_csv ~path
            (List.concat_map (fun r -> r.G.findings) reports);
          Format.printf "findings written to %s@." path);
      if not (List.for_all G.clean reports) then exit 1

let analyze_cmd =
  let scenario =
    let gates = (module G.Inversion : G.S) :: G.stock in
    Arg.(
      value
      & opt (some (enum (List.map (fun g -> (G.name g, g)) gates))) None
      & info [ "scenario" ] ~docv:"GATE"
          ~doc:
            (Printf.sprintf
               "Run only this gate: %s.  $(b,inversion) is a deliberate \
                lock-order inversion that self-tests the analyzer (exit 1).  \
                Default: every gate but $(b,inversion)."
               (String.concat ", " (List.map G.name gates))))
  in
  let checks =
    Arg.(
      value
      & opt string "lockdep,determinism,invariants"
      & info [ "check" ] ~docv:"CHECKS"
          ~doc:
            "Comma-separated sanitizer findings to report: $(b,lockdep), \
             $(b,determinism), $(b,invariants).")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Export the findings of every gate run to $(docv).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run every gate (lockdep, determinism, invariants, then each \
          gate's accounting checks); exit nonzero on any finding or failure")
    Term.(const analyze $ seed_arg $ scenario $ checks $ csv $ logs_term)

(* --- inject ----------------------------------------------------------- *)

(* Fault-injection driver: arm a kfault plan over a varbench deployment,
   run it twice under the sanitizers, and report the injection counters
   and the replay hashes.  Exits 1 on any finding or hash divergence. *)
let inject seed plan_name (env_name, kind) units intensity () =
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
  let corpus = E.default_corpus ~seed E.Quick in
  let params = { Ksurf.Harness.iterations = 6; warmup_iterations = 1 } in
  let (result, stats, injections), replay, findings =
    timed "inject" (fun () ->
        A.Sanitizer.double_run () ~run:(fun ~on_engine ->
            let engine = Ksurf.Engine.create ~seed () in
            on_engine engine;
            let env =
              Ksurf.Env.deploy ~engine kind (Ksurf.Partition.table1 units)
            in
            let kf = Ksurf.Kfault.arm ~env ~plan ~seed () in
            let result = Ksurf.Harness.run ~env ~corpus ~params () in
            Ksurf.Kfault.disarm kf;
            (result, Ksurf.Kfault.stats kf, Ksurf.Kfault.total_injections kf)))
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
  Format.printf "  harness: %d retries, %d abandoned@."
    result.Ksurf.Harness.transient_retries
    result.Ksurf.Harness.abandoned_calls;
  Format.printf "  %a@." A.Determinism.pp_replay replay;
  List.iter (Format.printf "  %a@." A.Finding.pp) findings;
  if findings <> [] then exit 1;
  Format.printf "  no findings: faulted run is deterministic and clean@."

let inject_cmd =
  let plan =
    Arg.(
      value & opt string "mixed"
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Fault plan: a preset name ($(b,syscalls), $(b,storms), \
             $(b,preempt), $(b,mixed)) or a plan file path.")
  in
  let intensity =
    Arg.(
      value & opt non_negative 1.0
      & info [ "intensity" ] ~docv:"K"
          ~doc:"Scale the plan's dose by $(docv) (see Fault_plan.scale).")
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:
         "Run a fault-injected varbench deployment twice; verify the \
          injections replay bit-identically and pass lockdep/invariants; \
          exit nonzero on any finding")
    Term.(
      const inject $ seed_arg $ plan $ env_arg $ units_arg 2 $ intensity $ logs_term)

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
            ("fs", E.Specialize.retained, E.Specialize.workload (E.context ~seed scale))
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

(* --- studies ----------------------------------------------------------- *)

(* The one study runner, behind every entry's subcommand and [all].  The
   export directory is created before any cell runs, so a bad path exits
   3 with nothing rendered.  Then each entry runs in order on one corpus
   and one pool, prints its rendering and writes its CSV. *)
let run_studies studies ~seed ~scale ~jobs ~export =
  Option.iter Ksurf.Fileio.ensure_dir export;
  let write dir c = Format.printf "wrote %s@." (E.write_csv ~dir c) in
  with_pool jobs (fun pool ->
      let ctx = E.context ~seed ~pool scale in
      List.iteri
        (fun i (s : E.study) ->
          if i > 0 then Format.printf "@.";
          let o = timed s.E.name (fun () -> s.E.run ctx) in
          Format.printf "%t@." o.E.render;
          Option.iter (fun dir -> List.iter (write dir) o.E.csvs) export)
        studies)

(* One subcommand per entry: --seed/--scale/--jobs, plus --export when
   it writes a CSV. *)
let study_cmd (s : E.study) =
  let export = if s.E.exports () <> [] then export_arg else Term.const None in
  let go seed scale jobs export () =
    run_studies [ s ] ~seed ~scale ~jobs ~export
  in
  Cmd.v (Cmd.info s.E.name ~doc:s.E.doc)
    Term.(const go $ seed_arg $ scale_arg $ jobs_arg $ export $ logs_term)

let all_cmd =
  let go seed scale jobs export () =
    run_studies E.studies ~seed ~scale ~jobs ~export
  in
  Cmd.v
    (Cmd.info "all"
       ~doc:
         "Run every table and study in order, writing every CSV under \
          $(b,--export)")
    Term.(const go $ seed_arg $ scale_arg $ jobs_arg $ export_arg $ logs_term)

let main_cmd =
  let doc =
    "reproduce 'Reducing Kernel Surface Areas for Isolation and \
     Scalability' (ICPP'19) on a simulated multicore machine"
  in
  Cmd.group (Cmd.info "ksurf" ~version:"1.0.0" ~doc)
    ([ gen_corpus_cmd; run_corpus_cmd; analyze_cmd; inject_cmd; staticcheck_cmd ]
    @ List.map study_cmd E.studies
    @ [ all_cmd ])

(* Exit codes: 0 success, 1 the experiment found something (findings,
   divergence), 2 you asked for something impossible
   (bad arguments, cmdliner parse errors included), 3 the machine failed
   underneath us (full disk, bad permissions, unwritable directory). *)
let () =
  match Cmd.eval_value ~catch:false main_cmd with
  | Ok (`Ok () | `Version | `Help) -> exit 0
  | Error _ -> exit 2
  | exception Ksurf.Fileio.Io_error msg ->
      Format.eprintf "ksurf: I/O failure: %s@." msg;
      exit 3
