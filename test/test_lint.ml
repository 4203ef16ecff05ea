(* klint: the fixture files pin down exactly what the lint flags and
   what it lets through, and the live-tree test keeps the real lib/
   sources holding the invariant the lint encodes. *)

module Lint = Ksurf_lint.Lint

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let all_checks = [ Lint.Mutable_state; Lint.Raw_open_out ]

let test_bad_fixture () =
  let findings =
    Lint.lint_source ~path:"fixtures/klint_bad.ml.txt" ~checks:all_checks
      (read "fixtures/klint_bad.ml.txt")
  in
  let codes = List.map (fun f -> f.Lint.code) findings in
  Alcotest.(check (list string))
    "mutable state, then each raw durable-I/O primitive"
    [
      "toplevel-mutable-state";
      "toplevel-mutable-state";
      "toplevel-mutable-state";
      "raw-open-out";
      "raw-openfile";
      "raw-rename";
    ]
    codes;
  List.iter
    (fun f -> Alcotest.(check bool) "line is positive" true (f.Lint.line > 0))
    findings

let test_good_fixture () =
  let findings =
    Lint.lint_source ~path:"fixtures/klint_good.ml.txt" ~checks:all_checks
      (read "fixtures/klint_good.ml.txt")
  in
  Alcotest.(check int)
    "DLS thunks, mutex-guarded bindings, annotations and per-call \
     constructors all pass"
    0 (List.length findings)

let test_parse_error () =
  let findings =
    Lint.lint_source ~path:"broken.ml" ~checks:all_checks "let let let"
  in
  Alcotest.(check (list string))
    "unparseable input is itself a finding" [ "parse-error" ]
    (List.map (fun f -> f.Lint.code) findings)

let test_default_checks () =
  let has c path = List.mem c (Lint.default_checks ~path) in
  Alcotest.(check bool) "sim gets the mutable-state check" true
    (has Lint.Mutable_state "lib/sim/engine.ml");
  Alcotest.(check bool) "par gets the mutable-state check" true
    (has Lint.Mutable_state "lib/par/pool.ml");
  Alcotest.(check bool) "kernel does not" false
    (has Lint.Mutable_state "lib/kernel/instance.ml");
  Alcotest.(check bool) "everything gets the raw-I/O check" true
    (has Lint.Raw_open_out "lib/kernel/instance.ml");
  Alcotest.(check bool) "recov gets the raw-I/O check" true
    (has Lint.Raw_open_out "lib/recov/journal.ml");
  Alcotest.(check bool) "except fileio itself" false
    (has Lint.Raw_open_out "lib/util/fileio.ml")

let suite =
  [
    Alcotest.test_case "bad fixture flagged" `Quick test_bad_fixture;
    Alcotest.test_case "good fixture clean" `Quick test_good_fixture;
    Alcotest.test_case "parse error reported" `Quick test_parse_error;
    Alcotest.test_case "repo check policy" `Quick test_default_checks;
  ]
