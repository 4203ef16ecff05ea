(* CLI exit-code discipline: 0 success, 1 findings, 2 bad arguments,
   3 I/O failure.  Every subcommand that touches the filesystem must
   map file-system trouble to exit 3 through the one shared handler —
   pointing output at a path under /dev/null fails fast in
   Fileio.ensure_dir, so these spawns stay cheap even for commands
   whose happy path is a long sweep. *)

let exe dir name = Filename.concat (Filename.concat ".." dir) name
let cli = exe "bin" "ksurf_cli.exe"
let bench = exe "bench" "main.exe"

let run ?(prog = cli) args =
  let null = " >/dev/null 2>/dev/null" in
  (* Other suites in this process putenv KSURF_JOBS to junk on purpose;
     children would inherit it and die in cmdliner's env parsing. *)
  Sys.command
    ("unset KSURF_JOBS; exec " ^ Filename.quote prog ^ " " ^ args ^ null)

let check_exit ?prog name expected args =
  Alcotest.(check int) name expected (run ?prog args)

let test_io_failure_exits_3 () =
  List.iter
    (fun (name, args) -> check_exit name 3 args)
    [
      ("gen-corpus -o", "gen-corpus -o /dev/null/x/corpus");
      ("analyze --csv", "analyze --csv /dev/null/x/findings.csv");
      ("staticcheck --csv", "staticcheck --locks --csv /dev/null/x");
      ("dose --journal", "dose --journal /dev/null/x/sweep.journal");
      ("recover --journal", "recover --journal /dev/null/x/sweep.journal");
      ("tenancy --journal", "tenancy --journal /dev/null/x/sweep.journal");
      ("drift --journal", "drift --journal /dev/null/x/sweep.journal");
      ( "torture --export",
        "torture --dose 0 --path export --export /dev/null/x" );
      ( "specialize --journal",
        "specialize --journal /dev/null/x/sweep.journal" );
    ]

let test_bad_args_exit_2 () =
  List.iter
    (fun (name, args) -> check_exit name 2 args)
    [
      ("torture bad path", "torture --path bogus");
      ("analyze bad scenario", "analyze --scenario bogus");
      ("drift bad policy", "drift --policy bogus --dose 0");
      ("tenancy bad policy", "tenancy --policy bogus");
      ("inject bad env", "inject --env bogus");
      ("unknown flag", "table1 --bogus");
      ("removed tenancy --smoke", "tenancy --smoke");
      ("removed recover --soak", "recover --soak");
      ("unknown subcommand", "tabel2");
      ("bad scale", "table2 --scale bogus");
      ("bad jobs", "table2 --jobs x");
    ]

(* The negative-control gate: one lock-order-cycle finding. *)
let test_findings_exit_1 () =
  check_exit "analyze inversion" 1 "analyze --scenario inversion"

let test_success_exits_0 () =
  check_exit "torture control cell" 0 "torture --dose 0 --path export";
  check_exit "table1 takes the shared flags" 0
    "table1 --seed 7 --scale quick --jobs 1"

(* Every Experiments.tables entry is a subcommand, in the documented
   order, each name once. *)
let test_tables_are_subcommands () =
  let names = List.map (fun (t : Ksurf.Experiments.table) -> t.name) Ksurf.Experiments.tables in
  Alcotest.(check (list string)) "registry order"
    [
      "table1"; "table2"; "fig2"; "table3"; "fig3"; "fig4"; "ablate";
      "ablate-virt"; "lwvm"; "locks"; "dose"; "specialize";
    ]
    names;
  Alcotest.(check int) "unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter (fun n -> check_exit (n ^ " --help") 0 (n ^ " --help=plain")) names

let test_bench_bad_args_exit_2 () =
  List.iter
    (fun (name, args) -> check_exit ~prog:bench name 2 args)
    [
      ("unknown selector", "tabel2");
      ("bad --jobs", "--jobs x table1");
      ("bad --gate-speedup", "sweep quick --gate-speedup x");
    ]

let suite =
  [
    Alcotest.test_case "io failures exit 3" `Quick test_io_failure_exits_3;
    Alcotest.test_case "bad arguments exit 2" `Quick test_bad_args_exit_2;
    Alcotest.test_case "findings exit 1" `Quick test_findings_exit_1;
    Alcotest.test_case "success exits 0" `Quick test_success_exits_0;
    Alcotest.test_case "tables are subcommands" `Quick
      test_tables_are_subcommands;
    Alcotest.test_case "bench bad arguments exit 2" `Quick
      test_bench_bad_args_exit_2;
  ]
