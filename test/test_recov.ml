open Ksurf

(* Durable state: the completed-cell journal and atomic writes. *)

(* --- helpers ----------------------------------------------------------- *)

let temp_path suffix =
  let p = Filename.temp_file "ksurf-recov" suffix in
  Sys.remove p;
  p

let cleanup p = if Sys.file_exists p then Sys.remove p

(* --- journal ----------------------------------------------------------- *)

let test_journal_roundtrip () =
  let p = temp_path ".journal" in
  let j = Recov_journal.load ~path:p () in
  Alcotest.(check int) "starts empty" 0 (List.length (Recov_journal.cells j));
  Recov_journal.record j "dose:native:0.50";
  Recov_journal.record j "a key with spaces";
  Recov_journal.record j "dose:native:0.50";
  Recov_journal.flush j;
  let j' = Recov_journal.load ~path:p () in
  Alcotest.(check (list string))
    "reload keeps order, dedupes"
    [ "dose:native:0.50"; "a key with spaces" ]
    (Recov_journal.cells j');
  Alcotest.(check bool) "mem hit" true (Recov_journal.mem j' "a key with spaces");
  Alcotest.(check bool) "mem miss" false (Recov_journal.mem j' "other");
  cleanup p

let test_journal_drops_corrupt_lines () =
  let p = temp_path ".journal" in
  let j = Recov_journal.load ~path:p () in
  Recov_journal.record j "good-cell";
  Recov_journal.record j "another-good-cell";
  Recov_journal.flush j;
  (* Simulate a torn append plus line-level bit rot. *)
  let oc = open_out_gen [ Open_append ] 0o644 p in
  output_string oc "cell deadbeef tampered-checksum\ngarbage line\ncell 12";
  close_out oc;
  let j' = Recov_journal.load ~path:p () in
  Alcotest.(check (list string))
    "good cells survive, bad dropped"
    [ "good-cell"; "another-good-cell" ]
    (Recov_journal.cells j');
  cleanup p

let test_journal_missing_or_foreign_file () =
  let j = Recov_journal.load ~path:(temp_path ".journal") () in
  Alcotest.(check int) "missing file is empty" 0
    (List.length (Recov_journal.cells j));
  let p = temp_path ".journal" in
  let oc = open_out p in
  output_string oc "not a journal at all\n";
  close_out oc;
  let j' = Recov_journal.load ~path:p () in
  Alcotest.(check int) "foreign file is empty" 0
    (List.length (Recov_journal.cells j'));
  cleanup p

(* --- file I/O hardening ------------------------------------------------ *)

let test_write_atomic_no_partial_file () =
  let p = temp_path ".txt" in
  Fileio.write_atomic ~path:p (fun oc -> output_string oc "hello\n");
  Alcotest.(check bool) "written" true (Sys.file_exists p);
  Alcotest.(check bool) "no temp" false (Sys.file_exists (p ^ ".tmp"));
  cleanup p

let test_write_failure_raises_io_error () =
  let bad = Filename.concat (temp_path "-nodir") "out.csv" in
  (try
     Fileio.write_atomic ~path:bad (fun oc -> output_string oc "x");
     Alcotest.fail "no exception"
   with Fileio.Io_error _ -> ());
  try
    Csv.write ~path:bad ~header:[ "a" ] ~rows:[ [ "1" ] ];
    Alcotest.fail "csv write: no exception"
  with Fileio.Io_error _ -> ()

let suite =
  [
    Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal corrupt lines" `Quick
      test_journal_drops_corrupt_lines;
    Alcotest.test_case "journal foreign file" `Quick
      test_journal_missing_or_foreign_file;
    Alcotest.test_case "write_atomic clean" `Quick
      test_write_atomic_no_partial_file;
    Alcotest.test_case "io failures raise" `Quick
      test_write_failure_raises_io_error;
  ]
