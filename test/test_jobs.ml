(* Worker-count precedence: an explicit --jobs always beats
   KSURF_JOBS, which beats the machine default.  ksurf_cli routes its
   parsed --jobs value through Pool.resolve_jobs, so this pins the
   order for the CLI. *)

let with_env value f =
  let old = Sys.getenv_opt "KSURF_JOBS" in
  Unix.putenv "KSURF_JOBS" value;
  Fun.protect
    ~finally:(fun () ->
      (* putenv cannot unset; an empty value parses as invalid and
         falls back, which is what an absent variable does too. *)
      Unix.putenv "KSURF_JOBS" (Option.value old ~default:""))
    f

let test_cli_beats_env () =
  with_env "7" (fun () ->
      Alcotest.(check int) "explicit flag wins" 3
        (Ksurf.Pool.resolve_jobs ~cli:3 ()))

let test_env_beats_default () =
  with_env "5" (fun () ->
      Alcotest.(check int) "env honoured without a flag" 5
        (Ksurf.Pool.resolve_jobs ()))

let test_invalid_env_falls_back () =
  with_env "not-a-number" (fun () ->
      let expected = max 1 (Domain.recommended_domain_count () - 1) in
      Alcotest.(check int) "garbage env ignored" expected
        (Ksurf.Pool.resolve_jobs ()))

(* Capture everything written to stderr while [f] runs.  Flushes and
   swaps the underlying fd, so it sees Printf.eprintf output from any
   code path (the warning prints and flushes before the swap back). *)
let capture_stderr f =
  let tmp = Filename.temp_file "ksurf-jobs" ".stderr" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      flush stderr;
      let saved = Unix.dup Unix.stderr in
      let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      Unix.dup2 fd Unix.stderr;
      Unix.close fd;
      let restore () =
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved
      in
      let result = try Ok (f ()) with e -> Error e in
      restore ();
      let ic = open_in_bin tmp in
      let captured =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match result with
      | Ok v -> (v, captured)
      | Error e -> raise e)

let test_invalid_env_warns () =
  with_env "eight" (fun () ->
      let jobs, err = capture_stderr (fun () -> Ksurf.Pool.resolve_jobs ()) in
      let expected = max 1 (Domain.recommended_domain_count () - 1) in
      Alcotest.(check int) "still falls back" expected jobs;
      Alcotest.(check bool) "warning names the variable" true
        (Test_util.contains ~sub:"invalid KSURF_JOBS=\"eight\"" err);
      Alcotest.(check bool) "warning names the fallback" true
        (Test_util.contains ~sub:(Printf.sprintf "using %d" expected) err));
  (* An explicit --jobs short-circuits the env read entirely: no
     warning even with garbage in the environment. *)
  with_env "eight" (fun () ->
      let jobs, err = capture_stderr (fun () -> Ksurf.Pool.resolve_jobs ~cli:2 ()) in
      Alcotest.(check int) "cli wins" 2 jobs;
      Alcotest.(check string) "silent" "" err);
  (* Empty string means "unset" (putenv cannot remove): silent fallback. *)
  with_env "" (fun () ->
      let _, err = capture_stderr (fun () -> Ksurf.Pool.resolve_jobs ()) in
      Alcotest.(check string) "empty is silent" "" err)

let test_cli_clamped () =
  with_env "5" (fun () ->
      Alcotest.(check int) "nonpositive flag clamps to 1" 1
        (Ksurf.Pool.resolve_jobs ~cli:0 ()))

let suite =
  [
    Alcotest.test_case "cli beats env" `Quick test_cli_beats_env;
    Alcotest.test_case "env beats default" `Quick test_env_beats_default;
    Alcotest.test_case "invalid env falls back" `Quick test_invalid_env_falls_back;
    Alcotest.test_case "invalid env warns on stderr" `Quick
      test_invalid_env_warns;
    Alcotest.test_case "cli clamped" `Quick test_cli_clamped;
  ]
