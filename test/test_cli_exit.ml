(* CLI exit-code discipline: 0 success, 1 findings, 2 bad arguments,
   3 I/O failure.  Every subcommand that touches the filesystem must
   map file-system trouble to exit 3 through the one shared handler —
   pointing output at a path under /dev/null fails fast in
   Fileio.ensure_dir, so these spawns stay cheap even for commands
   whose happy path is a long sweep. *)

let exe dir name = Filename.concat (Filename.concat ".." dir) name
let cli = exe "bin" "ksurf_cli.exe"
let bench = exe "bench" "main.exe"

(* Exit code, stdout and stderr of one spawn. *)
let spawn ?(prog = cli) args =
  let out = Filename.temp_file "ksurf-cli" ".out" in
  let err = Filename.temp_file "ksurf-cli" ".err" in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove out;
      Sys.remove err)
    (fun () ->
      (* Other suites in this process putenv KSURF_JOBS to junk on
         purpose; children would inherit it and die in cmdliner's env
         parsing. *)
      let code =
        Sys.command
          ("unset KSURF_JOBS; exec " ^ Filename.quote prog ^ " " ^ args ^ " >"
         ^ Filename.quote out ^ " 2>" ^ Filename.quote err)
      in
      (code, read out, read err))

(* Exit code and stdout of one spawn. *)
let run_out ?prog args =
  let code, out, _ = spawn ?prog args in
  (code, out)

let check_exit ?prog name expected args =
  Alcotest.(check int) name expected (fst (run_out ?prog args))

(* A bad --export path fails before any cell runs: exit 3, nothing
   rendered. *)
let check_early_io_failure name args =
  let code, out = run_out args in
  Alcotest.(check int) name 3 code;
  Alcotest.(check string) (name ^ " renders nothing") "" out

let test_io_failure_exits_3 () =
  List.iter
    (fun (name, args) -> check_exit name 3 args)
    [
      ("gen-corpus -o", "gen-corpus -o /dev/null/x/corpus");
      ("analyze --csv", "analyze --csv /dev/null/x/findings.csv");
      ("staticcheck --csv", "staticcheck --locks --csv /dev/null/x");
    ];
  List.iter
    (fun (name, args) -> check_early_io_failure name args)
    [
      ("dose --export", "dose --export /dev/null/x");
      ("fig4 --export", "fig4 --scale full --export /dev/null/x");
      ("all --export", "all --export /dev/null/x");
    ]

let test_bad_args_exit_2 () =
  List.iter
    (fun (name, args) -> check_exit name 2 args)
    [
      ("analyze bad scenario", "analyze --scenario bogus");
      ("inject bad env", "inject --env bogus");
      ("inject removed crashy", "inject --plan crashy");
      ("inject removed drift", "inject --plan drift");
      ("unknown flag", "table1 --bogus");
      ("removed recover", "recover");
      ("removed tenancy", "tenancy");
      ("unknown subcommand", "tabel2");
      ("bad scale", "table2 --scale bogus");
      ("bad jobs", "table2 --jobs x");
    ]

(* A corpus run-corpus cannot decode is a bad argument, like a bad
   inject plan: a line whose last ')' comes before its first '(', one
   with junk after its ')', a missing file. *)
let test_bad_corpus_exit_2 () =
  let corpus = Filename.temp_file "ksurf-cli" ".corpus" in
  Fun.protect
    ~finally:(fun () -> Sys.remove corpus)
    (fun () ->
      List.iter
        (fun text ->
          Out_channel.with_open_bin corpus (fun oc -> output_string oc text);
          check_exit ("run-corpus undecodable " ^ String.escaped text) 2
            ("run-corpus " ^ Filename.quote corpus))
        [ "read)x(\n"; "getpid(0:0:0)junk\n" ];
      check_exit "run-corpus missing" 2 ("run-corpus " ^ Filename.quote (corpus ^ ".none")))

(* A --units outside Table 1, a non-positive --iterations, or a negative
   or non-finite --intensity is refused while the arguments are parsed:
   usage on stderr and exit 2, not an uncaught exception or a run on a
   nan. *)
let test_bad_numbers_are_usage_errors () =
  let corpus = Filename.temp_file "ksurf-cli" ".corpus" in
  Fun.protect
    ~finally:(fun () -> Sys.remove corpus)
    (fun () ->
      Out_channel.with_open_bin corpus (fun oc -> output_string oc "getpid(0:0:0)\n");
      let run_corpus = "run-corpus " ^ Filename.quote corpus in
      List.iter
        (fun (name, args) ->
          let code, _, err = spawn args in
          Alcotest.(check int) name 2 code;
          Alcotest.(check bool) (name ^ ": usage") true (Test_util.contains ~sub:"Usage:" err);
          Alcotest.(check bool)
            (name ^ ": no uncaught exception")
            false
            (Test_util.contains ~sub:"Fatal error" err))
        [
          ("run-corpus --units 3", run_corpus ^ " --units 3");
          ("inject --units 3", "inject --units 3");
          ("run-corpus --iterations 0", run_corpus ^ " --iterations 0");
          ("inject --intensity=-1", "inject --intensity=-1");
          ("inject --intensity nan", "inject --intensity nan");
          ("inject --intensity inf", "inject --intensity inf");
        ])

(* The negative-control gate: one lock-order-cycle finding. *)
let test_findings_exit_1 () =
  check_exit "analyze inversion" 1 "analyze --scenario inversion"

let test_success_exits_0 () =
  check_exit "torture gate" 0 "analyze --scenario torture";
  check_exit "table1 takes the shared flags" 0
    "table1 --seed 7 --scale quick --jobs 1"

(* The subcommands other than the Experiments.studies entries. *)
let tools = [ "all"; "analyze"; "gen-corpus"; "inject"; "run-corpus"; "staticcheck" ]

(* The subcommands listed by --help. *)
let subcommands () =
  let _, help = run_out "--help=plain" in
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | name :: opts :: _
        when String.starts_with ~prefix:"       " line
             && String.starts_with ~prefix:"[OPTION]" opts ->
          Some name
      | _ -> None)
    (String.split_on_char '\n' help)

(* Every Experiments.studies entry is a subcommand, in the documented
   order, each name once; --export exists exactly where the entry
   writes a CSV, and no entry takes --journal or --resume. *)
let test_studies_are_subcommands () =
  let studies = Ksurf.Experiments.studies in
  let names = List.map (fun (s : Ksurf.Experiments.study) -> s.name) studies in
  Alcotest.(check (list string)) "registry order"
    [
      "table1"; "table2"; "fig2"; "table3"; "fig3"; "fig4"; "ablate";
      "ablate-virt"; "lwvm"; "locks"; "dose"; "specialize";
    ]
    names;
  Alcotest.(check (list string)) "subcommands"
    (List.sort compare (tools @ names))
    (List.sort compare (subcommands ()));
  List.iter
    (fun (s : Ksurf.Experiments.study) ->
      let n = s.name in
      check_exit (n ^ " --help") 0 (n ^ " --help=plain");
      check_exit (n ^ " --export") (if s.exports () <> [] then 3 else 2)
        (n ^ " --export /dev/null/x");
      check_exit (n ^ " --journal") 2 (n ^ " --journal /dev/null/x/sweep.journal");
      check_exit (n ^ " --resume") 2 (n ^ " --resume"))
    studies;
  Alcotest.(check (list string)) "writers"
    [
      "table2"; "fig2"; "table3"; "fig3"; "fig4"; "ablate"; "ablate-virt";
      "lwvm"; "locks"; "dose"; "specialize";
    ]
    (List.filter_map
       (fun (s : Ksurf.Experiments.study) ->
         if s.exports () <> [] then Some s.name else None)
       studies)

let test_bench_bad_args_exit_2 () =
  List.iter
    (fun (name, args) -> check_exit ~prog:bench name 2 args)
    [
      ("unknown selector", "tabel2");
      ("removed table selector", "table2");
      ("bad --jobs", "--jobs x sweep");
      ("bad --gate-speedup", "sweep quick --gate-speedup x");
    ]

let suite =
  [
    Alcotest.test_case "io failures exit 3" `Quick test_io_failure_exits_3;
    Alcotest.test_case "bad arguments exit 2" `Quick test_bad_args_exit_2;
    Alcotest.test_case "bad corpus exits 2" `Quick test_bad_corpus_exit_2;
    Alcotest.test_case "bad numbers are usage errors" `Quick
      test_bad_numbers_are_usage_errors;
    Alcotest.test_case "findings exit 1" `Quick test_findings_exit_1;
    Alcotest.test_case "success exits 0" `Quick test_success_exits_0;
    Alcotest.test_case "tables are subcommands" `Quick
      test_studies_are_subcommands;
    Alcotest.test_case "bench bad arguments exit 2" `Quick
      test_bench_bad_args_exit_2;
  ]
