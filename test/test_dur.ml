open Ksurf

(* kdur: host-I/O fault injection and crash-consistency torture.

   Covers the fault plans' dose knob, the deterministic injector, the
   crash-state enumerator's filesystem model, the hardened writers
   (dir fsync, bounded retry, ENOSPC deferral), recovery edges
   (torn journal tails, concurrent write_atomic under faults), and the
   torture cells end to end. *)

(* --- helpers ----------------------------------------------------------- *)

let temp_dir prefix =
  let p = Filename.temp_file prefix "" in
  Sys.remove p;
  Unix.mkdir p 0o755;
  p

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_temp_dir prefix f =
  let d = temp_dir prefix in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let op_tag (op : Iohook.op) =
  match op with
  | Iohook.Open _ -> "open"
  | Iohook.Write _ -> "write"
  | Iohook.Fsync _ -> "fsync"
  | Iohook.Fsync_dir _ -> "fsync-dir"
  | Iohook.Rename _ -> "rename"
  | Iohook.Remove _ -> "remove"
  | Iohook.Read _ -> "read"
  | Iohook.Mkdir _ -> "mkdir"

(* --- durplan ------------------------------------------------------------ *)

let test_durplan_scale () =
  let mixed = Durplan.io_mixed in
  Alcotest.(check (list int))
    "zero dose injects nothing" []
    (List.map (fun _ -> 0) (Durplan.scale 0.0 mixed).Durplan.actions);
  let crashy =
    {
      Durplan.name = "io-crashy";
      actions = mixed.Durplan.actions @ [ Durplan.Crash_at { op = 25 } ];
    }
  in
  let has_crash p =
    List.exists
      (function Durplan.Crash_at _ -> true | _ -> false)
      p.Durplan.actions
  in
  Alcotest.(check bool)
    "crash kept verbatim at k>0" true
    (has_crash (Durplan.scale 0.5 crashy));
  Alcotest.(check bool)
    "crash dropped at k=0" false
    (has_crash (Durplan.scale 0.0 crashy));
  let enospc =
    {
      Durplan.name = "io-enospc";
      actions = [ Durplan.Enospc_window { from_op = 40; until_op = 80 } ];
    }
  in
  let window p =
    List.find_map
      (function
        | Durplan.Enospc_window { from_op; until_op } ->
            Some (from_op, until_op)
        | _ -> None)
      p.Durplan.actions
  in
  let f0, u0 = Option.get (window enospc) in
  let f2, u2 = Option.get (window (Durplan.scale 2.0 enospc)) in
  Alcotest.(check int) "onset unmoved" f0 f2;
  Alcotest.(check int) "window length doubled" (2 * (u0 - f0)) (u2 - f2)

(* --- write_atomic trace and durability --------------------------------- *)

let test_write_atomic_trace () =
  with_temp_dir "ksurf-dur-trace" @@ fun root ->
  let path = Filename.concat root "out.txt" in
  let result, ops =
    Crashsim.record ~root (fun () ->
        Fileio.write_atomic ~path (fun oc -> output_string oc "payload\n"))
  in
  (match result with
  | Ok () -> ()
  | Error e -> raise e);
  Alcotest.(check (list string))
    "open, write, fsync, rename, dir fsync — in that order"
    [ "open"; "write"; "fsync"; "rename"; "fsync-dir" ]
    (List.map op_tag ops);
  (* The trailing directory fsync is what makes the rename durable:
     the durable-min view of the complete trace must show the file. *)
  let final = Crashsim.final_durable ops in
  Alcotest.(check bool)
    "rename survives durable-min" true
    (List.mem ("out.txt", "payload\n") final.Crashsim.files);
  (* Without that last op the model must forget the rename. *)
  let chopped = List.filteri (fun i _ -> i < List.length ops - 1) ops in
  let gap = Crashsim.final_durable chopped in
  Alcotest.(check bool)
    "dropping the dir fsync loses the entry" false
    (List.mem_assoc "out.txt" gap.Crashsim.files)

let test_ensure_dir () =
  with_temp_dir "ksurf-dur-mkdir" @@ fun root ->
  let nested = Filename.concat (Filename.concat root "a") "b" in
  let _, ops = Crashsim.record ~root (fun () -> Fileio.ensure_dir nested) in
  Alcotest.(check bool) "directory exists" true (Sys.is_directory nested);
  let tags = List.map op_tag ops in
  Alcotest.(check bool)
    "mkdirs are fsynced into their parents" true
    (List.mem "mkdir" tags && List.mem "fsync-dir" tags);
  let _, again = Crashsim.record ~root (fun () -> Fileio.ensure_dir nested) in
  Alcotest.(check (list string))
    "idempotent: no ops when present" []
    (List.map op_tag again);
  match Fileio.ensure_dir "/dev/null/sub" with
  | () -> Alcotest.fail "non-directory component accepted"
  | exception Fileio.Io_error _ -> ()

(* --- faultio ------------------------------------------------------------ *)

let test_faultio_deterministic () =
  let plan = Durplan.scale 2.0 Durplan.io_mixed in
  let synth i : Iohook.op =
    if i mod 3 = 0 then Iohook.Write { path = "/r/f"; content = "x" }
    else if i mod 3 = 1 then Iohook.Fsync { path = "/r/f" }
    else Iohook.Open { path = "/r/f" }
  in
  let run () =
    let t = Faultio.make ~root:"/r" ~seed:99 plan in
    let out = ref [] in
    for i = 0 to 199 do
      (match Faultio.handler t (synth i) with
      | Iohook.Proceed -> out := "p" :: !out
      | Iohook.Fail e -> out := Unix.error_message e :: !out
      | Iohook.Torn k -> out := Printf.sprintf "torn%.2f" k :: !out
      | Iohook.Drop -> out := "drop" :: !out
      | Iohook.Crash -> out := "crash" :: !out);
      ()
    done;
    (List.rev !out, Faultio.stats t)
  in
  let a, sa = run () and b, sb = run () in
  Alcotest.(check (list string)) "same seed, same decisions" a b;
  Alcotest.(check int) "ops counted" 200 sa.Faultio.ops;
  Alcotest.(check bool) "stats agree" true (sa = sb);
  Alcotest.(check bool)
    "mixed dose 2 injects something" true
    (sa.Faultio.transients + sa.Faultio.enospc + sa.Faultio.torn
     + sa.Faultio.fsync_dropped + sa.Faultio.eio
    > 0);
  (* Out-of-scope ops neither fault nor advance the schedule. *)
  let t = Faultio.make ~root:"/r" ~seed:7 plan in
  (match Faultio.handler t (Iohook.Open { path = "/elsewhere/f" }) with
  | Iohook.Proceed -> ()
  | _ -> Alcotest.fail "out-of-root op perturbed");
  Alcotest.(check int) "op index unmoved" 0 (Faultio.op_index t)

let test_transient_retry_absorbed () =
  with_temp_dir "ksurf-dur-retry" @@ fun root ->
  let plan =
    {
      Durplan.name = "t";
      actions = [ Durplan.Transient { rate = 0.4; eintr_share = 0.5 } ];
    }
  in
  let t = Faultio.make ~root ~seed:3 plan in
  let before = Fileio.transient_retries () in
  Faultio.with_faults t (fun () ->
      for i = 0 to 19 do
        Fileio.write_atomic
          ~path:(Filename.concat root "f.txt")
          (fun oc -> Printf.fprintf oc "gen %d\n" i)
      done);
  let s = Faultio.stats t in
  Alcotest.(check bool) "injector fired" true (s.Faultio.transients > 0);
  Alcotest.(check bool)
    "every transient absorbed by retry" true
    (Fileio.transient_retries () - before >= s.Faultio.transients);
  Alcotest.(check string)
    "last write wins, intact" "gen 19\n"
    (read_file (Filename.concat root "f.txt"))

(* --- journal edges ------------------------------------------------------ *)

let test_journal_torn_tail () =
  with_temp_dir "ksurf-dur-jtail" @@ fun root ->
  let path = Filename.concat root "sweep.journal" in
  let j = Recov_journal.load ~flush_every:1 ~path () in
  for i = 0 to 7 do
    Recov_journal.record j (Printf.sprintf "cell-%02d" i)
  done;
  Recov_journal.flush j;
  let whole = read_file path in
  (* Tear the file mid-last-line, as a crash during a non-atomic
     append would; resume must keep the intact prefix and drop the
     torn tail without raising.  (A 1-byte cut only loses the final
     newline — the last line is still checksum-valid and kept.) *)
  List.iter
    (fun cut ->
      let torn = String.sub whole 0 (String.length whole - cut) in
      let oc = open_out_bin path in
      output_string oc torn;
      close_out oc;
      let j' = Recov_journal.load ~path () in
      let cells = Recov_journal.cells j' in
      if cut > 1 then
        Alcotest.(check bool)
          (Printf.sprintf "cut %d: torn tail dropped" cut)
          true
          (List.length cells < 8);
      List.iteri
        (fun i c ->
          Alcotest.(check string)
            (Printf.sprintf "cut %d: prefix cell %d intact" cut i)
            (Printf.sprintf "cell-%02d" i)
            c)
        cells)
    [ 1; 5; 9 ];
  (* A checksum-corrupted middle line is dropped, not resumed from. *)
  let oc = open_out_bin path in
  output_string oc whole;
  close_out oc;
  let lines = String.split_on_char '\n' whole in
  let flipped =
    List.mapi
      (fun i l ->
        if i = 3 && String.length l > 0 then
          String.mapi (fun j c -> if j = String.length l - 1 then 'X' else c) l
        else l)
      lines
  in
  let oc = open_out_bin path in
  output_string oc (String.concat "\n" flipped);
  close_out oc;
  let j'' = Recov_journal.load ~path () in
  Alcotest.(check bool)
    "corrupt line dropped" true
    (not (List.exists (fun c -> c = "cell-03") (Recov_journal.cells j''))
    || List.length (Recov_journal.cells j'') < 8)

let test_journal_enospc_deferral () =
  with_temp_dir "ksurf-dur-enospc" @@ fun root ->
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
      Alcotest.(check bool) "deferrals counted" true (Recov_journal.deferred j > 0);
      Alcotest.(check int)
        "no cell lost from memory" 6
        (List.length (Recov_journal.cells j));
      (* Space clears: the very next flush lands everything. *)
      full := false;
      Recov_journal.flush j;
      Alcotest.(check bool)
        "clean after space clears" false
        (Recov_journal.persist_pending j));
  let j' = Recov_journal.load ~path () in
  Alcotest.(check int)
    "all cells durable after clear" 6
    (List.length (Recov_journal.cells j'))

(* --- concurrent write_atomic under injected faults ---------------------- *)

let test_concurrent_write_atomic_faults () =
  with_temp_dir "ksurf-dur-conc" @@ fun root ->
  let path = Filename.concat root "shared.txt" in
  let plan =
    {
      Durplan.name = "conc";
      actions =
        [
          Durplan.Transient { rate = 0.3; eintr_share = 0.5 };
          Durplan.Fsync_drop { rate = 0.2 };
        ];
    }
  in
  let body tag =
    (* Each domain installs its own injector: the hook is domain-local. *)
    let t = Faultio.make ~root ~seed:(Hashtbl.hash tag) plan in
    Faultio.with_faults t (fun () ->
        for i = 0 to 24 do
          Fileio.write_atomic ~path (fun oc ->
              Printf.fprintf oc "%s line %d\n%s line %d\n" tag i tag (i + 1))
        done)
  in
  let d1 = Domain.spawn (fun () -> body "alpha") in
  let d2 = Domain.spawn (fun () -> body "beta") in
  Domain.join d1;
  Domain.join d2;
  let final = read_file path in
  let expect tag =
    Printf.sprintf "%s line 24\n%s line 25\n" tag tag
  in
  Alcotest.(check bool)
    "final file is one writer's complete last version" true
    (final = expect "alpha" || final = expect "beta");
  Alcotest.(check int)
    "no temp litter under concurrency" 0
    (Fileio.sweep_tmp ~dir:root)

(* --- torture cells ------------------------------------------------------ *)

let torture_cell kind dose seed scratch =
  Torture.run { Torture.kind; dose; runs = 2; seed; scratch }

let check_cell name (r : Torture.result) =
  Alcotest.(check int) (name ^ ": zero violations") 0 (Torture.violations r);
  Alcotest.(check (float 1e-9)) (name ^ ": recovery 1.0") 1.0 r.recovery_ok;
  Alcotest.(check int) (name ^ ": no surviving litter") 0 r.litter_after;
  Alcotest.(check bool)
    (name ^ ": crash states enumerated")
    true (r.crash_states > 0)

let test_torture_cells () =
  with_temp_dir "ksurf-dur-tort" @@ fun scratch ->
  List.iter
    (fun kind ->
      let kn = Torture.kind_name kind in
      let r0 =
        torture_cell kind 0.0 11 (Filename.concat scratch (kn ^ "-0"))
      in
      check_cell (kn ^ " dose 0") r0;
      Alcotest.(check int) (kn ^ " dose 0: fault-free") 0 r0.Torture.crashes;
      let r1 =
        torture_cell kind 1.0 11 (Filename.concat scratch (kn ^ "-1"))
      in
      check_cell (kn ^ " dose 1") r1;
      Alcotest.(check bool)
        (kn ^ " dose 1: live faults injected")
        true
        (r1.Torture.crashes + r1.Torture.transients + r1.Torture.enospc
         + r1.Torture.torn_writes + r1.Torture.fsync_dropped
        > 0))
    Torture.all_kinds;
  (* Journal enumeration must prove the checksum refusal path actually
     fires. *)
  let r =
    torture_cell Torture.Journal_path 1.0 11 (Filename.concat scratch "jt")
  in
  Alcotest.(check bool)
    "journal: torn states refused" true (r.Torture.torn_refused > 0)

let test_torture_deterministic () =
  with_temp_dir "ksurf-dur-tdet" @@ fun scratch ->
  let a =
    torture_cell Torture.Journal_path 2.0 5 (Filename.concat scratch "a")
  in
  let b =
    torture_cell Torture.Journal_path 2.0 5 (Filename.concat scratch "b")
  in
  Alcotest.(check bool)
    "same seed, same cell result (scratch-independent)" true (a = b)

(* --- iohook ------------------------------------------------------------- *)

let test_iohook_nesting () =
  Alcotest.(check bool) "no ambient handler" false (Iohook.active ());
  let outer = ref 0 and inner = ref 0 in
  Iohook.with_handler
    (fun _ ->
      incr outer;
      Iohook.Proceed)
    (fun () ->
      let op = Iohook.Open { path = "/x" } in
      ignore (Iohook.consult op);
      Iohook.with_handler
        (fun _ ->
          incr inner;
          Iohook.Proceed)
        (fun () -> ignore (Iohook.consult op));
      ignore (Iohook.consult op));
  Alcotest.(check int) "outer saw its two consults" 2 !outer;
  Alcotest.(check int) "inner shadowed exactly once" 1 !inner;
  Alcotest.(check bool) "restored after" false (Iohook.active ())

let suite =
  [
    Alcotest.test_case "durplan scale" `Quick test_durplan_scale;
    Alcotest.test_case "write_atomic trace + dir fsync" `Quick
      test_write_atomic_trace;
    Alcotest.test_case "ensure_dir" `Quick test_ensure_dir;
    Alcotest.test_case "faultio deterministic" `Quick test_faultio_deterministic;
    Alcotest.test_case "transient retry absorbed" `Quick
      test_transient_retry_absorbed;
    Alcotest.test_case "journal torn tail" `Quick test_journal_torn_tail;
    Alcotest.test_case "journal ENOSPC deferral" `Quick
      test_journal_enospc_deferral;
    Alcotest.test_case "concurrent write_atomic under faults" `Quick
      test_concurrent_write_atomic_faults;
    Alcotest.test_case "torture cells" `Slow test_torture_cells;
    Alcotest.test_case "torture deterministic" `Quick
      test_torture_deterministic;
    Alcotest.test_case "iohook nesting" `Quick test_iohook_nesting;
  ]
