open Ksurf

(* Durable state: the completed-cell journal and atomic writes.  The
   Iohook handlers here record a writer's op stream or fail chosen ops
   with a real errno, which drives the retry and ENOSPC paths. *)

(* --- helpers ----------------------------------------------------------- *)

let temp_path suffix =
  let p = Filename.temp_file "ksurf-recov" suffix in
  Sys.remove p;
  p

let cleanup p = if Sys.file_exists p then Sys.remove p

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_temp_dir f =
  let d = temp_path "" in
  Unix.mkdir d 0o755;
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let entries dir = List.sort compare (Array.to_list (Sys.readdir dir))

(* The ops [f] emits, in order, as "<kind> <path>" with paths relative
   to [root]. *)
let trace ~root f =
  let prefix = root ^ "/" in
  let rel p =
    if p = root then "."
    else if String.starts_with ~prefix p then
      String.sub p (String.length prefix) (String.length p - String.length prefix)
    else p
  in
  let ops = ref [] in
  let tag (op : Iohook.op) =
    match op with
    | Iohook.Open { path } -> "open " ^ rel path
    | Iohook.Fsync { path } -> "fsync " ^ rel path
    | Iohook.Fsync_dir { path } -> "fsync-dir " ^ rel path
    | Iohook.Rename { src; dst } -> "rename " ^ rel src ^ " " ^ rel dst
    | Iohook.Remove { path } -> "remove " ^ rel path
    | Iohook.Read { path } -> "read " ^ rel path
    | Iohook.Mkdir { path } -> "mkdir " ^ rel path
  in
  Iohook.with_handler
    (fun op ->
      ops := tag op :: !ops;
      Iohook.Proceed)
    f;
  List.rev !ops

(* A handler that fails every [period]-th op it sees (from the first)
   with EINTR or EAGAIN in turn, counting its injections.  A retried op
   is consulted again, so no op fails twice in a row when [period > 1]. *)
let transient_faults ~period injected =
  let n = ref 0 in
  fun (_ : Iohook.op) ->
    let i = !n in
    incr n;
    if i mod period <> 0 then Iohook.Proceed
    else begin
      incr injected;
      Iohook.Fail (if i / period mod 2 = 0 then Unix.EINTR else Unix.EAGAIN)
    end

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
  with_temp_dir @@ fun dir ->
  let p = Filename.concat dir "out.txt" in
  Fileio.write_atomic ~path:p (fun oc -> output_string oc "hello\n");
  Alcotest.(check string) "written" "hello\n" (read_file p);
  Alcotest.(check (list string)) "only the destination" [ "out.txt" ] (entries dir)

(* The data is fsynced before the rename, and the directory after it:
   without the last op a crash can forget the rename itself. *)
let test_write_atomic_trace () =
  with_temp_dir @@ fun root ->
  let path = Filename.concat root "out.txt" in
  let ops =
    trace ~root (fun () ->
        Fileio.write_atomic ~path (fun oc -> output_string oc "payload\n"))
  in
  let tmp =
    match ops with
    | op :: _ when String.starts_with ~prefix:"open out.txt.tmp." op ->
        String.sub op 5 (String.length op - 5)
    | _ -> Alcotest.failf "first op is not a temp open: %s" (String.concat "; " ops)
  in
  Alcotest.(check (list string))
    "open, fsync, rename, dir fsync — in that order"
    [ "open " ^ tmp; "fsync " ^ tmp; "rename " ^ tmp ^ " out.txt"; "fsync-dir ." ]
    ops;
  Alcotest.(check string) "content" "payload\n" (read_file path)

let test_ensure_dir () =
  with_temp_dir @@ fun root ->
  let nested = Filename.concat (Filename.concat root "a") "b" in
  let ops = trace ~root (fun () -> Fileio.ensure_dir nested) in
  Alcotest.(check bool) "directory exists" true (Sys.is_directory nested);
  Alcotest.(check (list string))
    "each new directory is fsynced into its parent"
    [ "mkdir a"; "fsync-dir ."; "mkdir a/b"; "fsync-dir a" ]
    ops;
  Alcotest.(check (list string))
    "idempotent: no ops when present" []
    (trace ~root (fun () -> Fileio.ensure_dir nested));
  match Fileio.ensure_dir "/dev/null/sub" with
  | () -> Alcotest.fail "non-directory component accepted"
  | exception Fileio.Io_error _ -> ()

let test_transient_retry_absorbed () =
  with_temp_dir @@ fun root ->
  let path = Filename.concat root "f.txt" in
  let injected = ref 0 in
  Iohook.with_handler (transient_faults ~period:3 injected) (fun () ->
      for i = 0 to 19 do
        Fileio.write_atomic ~path (fun oc -> Printf.fprintf oc "gen %d\n" i)
      done);
  Alcotest.(check bool) "faults injected" true (!injected > 0);
  Alcotest.(check string) "last write wins, intact" "gen 19\n" (read_file path);
  Alcotest.(check (list string)) "no temp litter" [ "f.txt" ] (entries root)

(* A transient errno that never clears is retried a bounded number of
   times (16 retries after the first attempt), then surfaces as
   Io_error; the temp file is removed and the old destination kept. *)
let test_retry_bound () =
  with_temp_dir @@ fun root ->
  let path = Filename.concat root "f.txt" in
  Fileio.write_atomic ~path (fun oc -> output_string oc "old\n");
  let stuck ~on =
    let consults = ref 0 in
    let handler (op : Iohook.op) =
      if on op then begin
        incr consults;
        Iohook.Fail Unix.EAGAIN
      end
      else Iohook.Proceed
    in
    (match
       Iohook.with_handler handler (fun () ->
           Fileio.write_atomic ~path (fun oc -> output_string oc "new\n"))
     with
    | () -> Alcotest.fail "write_atomic succeeded under a stuck EAGAIN"
    | exception Fileio.Io_error _ -> ());
    !consults
  in
  Alcotest.(check int) "every op EAGAIN: 17 attempts" 17 (stuck ~on:(fun _ -> true));
  Alcotest.(check (list string)) "every op EAGAIN: no temp" [ "f.txt" ] (entries root);
  let fsync_attempts =
    stuck ~on:(function Iohook.Fsync _ -> true | _ -> false)
  in
  Alcotest.(check int) "fsync EAGAIN: 17 attempts" 17 fsync_attempts;
  Alcotest.(check (list string))
    "fsync EAGAIN: written temp removed" [ "f.txt" ] (entries root);
  Alcotest.(check string) "old version kept" "old\n" (read_file path)

(* Two domains replace one file, each under its own transient faults
   (the hook is domain-local): the rename race installs one writer's
   complete last version and no temp file survives. *)
let test_concurrent_write_atomic_faults () =
  with_temp_dir @@ fun root ->
  let path = Filename.concat root "shared.txt" in
  let body (tag, period) =
    let injected = ref 0 in
    Iohook.with_handler (transient_faults ~period injected) (fun () ->
        for i = 0 to 24 do
          Fileio.write_atomic ~path (fun oc ->
              Printf.fprintf oc "%s line %d\n%s line %d\n" tag i tag (i + 1))
        done);
    !injected
  in
  let d1 = Domain.spawn (fun () -> body ("alpha", 3)) in
  let d2 = Domain.spawn (fun () -> body ("beta", 4)) in
  let n1 = Domain.join d1 and n2 = Domain.join d2 in
  Alcotest.(check bool) "both domains faulted" true (n1 > 0 && n2 > 0);
  let final = read_file path in
  let expect tag = Printf.sprintf "%s line 24\n%s line 25\n" tag tag in
  Alcotest.(check bool)
    "final file is one writer's complete last version" true
    (final = expect "alpha" || final = expect "beta");
  Alcotest.(check (list string)) "no temp litter" [ "shared.txt" ] (entries root)

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

(* --- journal edges ------------------------------------------------------ *)

let test_journal_torn_tail () =
  with_temp_dir @@ fun root ->
  let path = Filename.concat root "sweep.journal" in
  let j = Recov_journal.load ~flush_every:1 ~path () in
  for i = 0 to 7 do
    Recov_journal.record j (Printf.sprintf "cell-%02d" i)
  done;
  Recov_journal.flush j;
  let whole = read_file path in
  let overwrite text = Out_channel.with_open_bin path (fun oc -> output_string oc text) in
  (* Tear the file mid-last-line, as a crash during a non-atomic
     append would; resume must keep the intact prefix and drop the
     torn tail without raising.  (A 1-byte cut only loses the final
     newline — the last line is still checksum-valid and kept.) *)
  List.iter
    (fun cut ->
      overwrite (String.sub whole 0 (String.length whole - cut));
      let cells = Recov_journal.cells (Recov_journal.load ~path ()) in
      Alcotest.(check int)
        (Printf.sprintf "cut %d: cells kept" cut)
        (if cut > 1 then 7 else 8)
        (List.length cells);
      List.iteri
        (fun i c ->
          Alcotest.(check string)
            (Printf.sprintf "cut %d: prefix cell %d intact" cut i)
            (Printf.sprintf "cell-%02d" i)
            c)
        cells)
    [ 1; 5; 9 ];
  (* A checksum-corrupted middle line is dropped, not resumed from;
     the lines after it are kept. *)
  let flipped =
    List.mapi
      (fun i l ->
        if i = 4 then String.mapi (fun j c -> if j = String.length l - 1 then 'X' else c) l
        else l)
      (String.split_on_char '\n' whole)
  in
  overwrite (String.concat "\n" flipped);
  Alcotest.(check (list string))
    "corrupt line dropped"
    (List.filter (( <> ) "cell-03") (List.init 8 (Printf.sprintf "cell-%02d")))
    (Recov_journal.cells (Recov_journal.load ~path ()))

let test_journal_enospc_deferral () =
  with_temp_dir @@ fun root ->
  let path = Filename.concat root "sweep.journal" in
  let full = ref true in
  let handler (op : Iohook.op) : Iohook.outcome =
    match op with
    | Iohook.Open _ when !full -> Iohook.Fail Unix.ENOSPC
    | _ -> Iohook.Proceed
  in
  Iohook.with_handler handler (fun () ->
      let j = Recov_journal.load ~flush_every:2 ~path () in
      for i = 0 to 5 do
        Recov_journal.record j (Printf.sprintf "c%d" i)
      done;
      Recov_journal.flush j;
      Alcotest.(check bool)
        "persists deferred while disk full" true
        (Recov_journal.persist_pending j);
      Alcotest.(check bool) "nothing on disk" false (Sys.file_exists path);
      Alcotest.(check int)
        "no cell lost from memory" 6
        (List.length (Recov_journal.cells j));
      (* Space clears: the very next flush lands everything. *)
      full := false;
      Recov_journal.flush j;
      Alcotest.(check bool)
        "clean after space clears" false
        (Recov_journal.persist_pending j));
  Alcotest.(check int)
    "all cells durable after clear" 6
    (List.length (Recov_journal.cells (Recov_journal.load ~path ())))

(* --- iohook ------------------------------------------------------------- *)

let test_iohook_nesting () =
  let op = Iohook.Open { path = "/x" } in
  let ambient () = Iohook.consult op = Iohook.Proceed in
  Alcotest.(check bool) "no ambient handler" true (ambient ());
  let outer = ref 0 and inner = ref 0 in
  let counting r _ =
    incr r;
    Iohook.Proceed
  in
  Iohook.with_handler (counting outer) (fun () ->
      ignore (Iohook.consult op);
      Iohook.with_handler (counting inner) (fun () -> ignore (Iohook.consult op));
      ignore (Iohook.consult op));
  Alcotest.(check int) "outer saw its two consults" 2 !outer;
  Alcotest.(check int) "inner shadowed exactly once" 1 !inner;
  Alcotest.(check bool) "restored after" true (ambient ())

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
    Alcotest.test_case "write_atomic trace + dir fsync" `Quick
      test_write_atomic_trace;
    Alcotest.test_case "ensure_dir" `Quick test_ensure_dir;
    Alcotest.test_case "transient retry absorbed" `Quick
      test_transient_retry_absorbed;
    Alcotest.test_case "transient retry bound" `Quick test_retry_bound;
    Alcotest.test_case "concurrent write_atomic under faults" `Quick
      test_concurrent_write_atomic_faults;
    Alcotest.test_case "journal torn tail" `Quick test_journal_torn_tail;
    Alcotest.test_case "journal ENOSPC deferral" `Quick
      test_journal_enospc_deferral;
    Alcotest.test_case "iohook nesting" `Quick test_iohook_nesting;
  ]
