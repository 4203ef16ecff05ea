open Ksurf

(* kspec: profiles, compiled specs, pruned configs, and enforcement
   wired through Env.  Uses tiny hand-built corpora so every check is
   exact. *)

let quiet = Kernel_config.quiet

(* [f ()]'s result and the virtual time it took, read from the clock. *)
let timed engine f =
  let clock = Engine.clock engine in
  let t0 = clock.(0) in
  let r = f () in
  (r, clock.(0) -. t0)

let program_of_calls ~id names =
  let text =
    String.concat "\n" (List.map (fun n -> Printf.sprintf "%s(0:0:0)" n) names)
  in
  match Program.of_string ~id text with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad test program: %s" e

let fs_corpus () =
  Corpus.of_programs
    [
      program_of_calls ~id:0 [ "open"; "read"; "write"; "fsync" ];
      program_of_calls ~id:1 [ "mkdir"; "rename"; "unlink" ];
    ]

let fs_profile () = Profile.of_corpus ~name:"fs" (fs_corpus ())

(* --- profiles --------------------------------------------------------- *)

let test_profile_of_corpus () =
  let p = fs_profile () in
  Alcotest.(check string) "name" "fs" p.Profile.name;
  Alcotest.(check bool) "sorted unique syscalls" true
    (p.Profile.syscalls = List.sort_uniq compare p.Profile.syscalls);
  Alcotest.(check bool) "open recorded" true
    (List.mem "open" p.Profile.syscalls);
  Alcotest.(check bool) "coverage nonempty" true
    (Coverage.Set.cardinal p.Profile.coverage > 0)

let test_profile_recorder_matches_of_corpus () =
  let corpus = fs_corpus () in
  let r = Profile.recorder ~name:"fs" () in
  Array.iter (Profile.observe r) (Corpus.programs corpus);
  let live = Profile.snapshot r in
  let offline = Profile.of_corpus ~name:"fs" corpus in
  Alcotest.(check (list string))
    "same syscalls" offline.Profile.syscalls live.Profile.syscalls;
  Alcotest.(check bool) "same categories" true
    (offline.Profile.categories = live.Profile.categories);
  Alcotest.(check bool) "same coverage" true
    (Coverage.Set.equal offline.Profile.coverage live.Profile.coverage)

let test_restrict () =
  let keep = [ Category.File_io; Category.Fs_mgmt ] in
  let full = Experiments.default_corpus ~seed:11 Experiments.Quick in
  match Profile.restrict full ~keep with
  | None -> Alcotest.fail "quick corpus has no fs calls"
  | Some c ->
      Alcotest.(check bool) "smaller or equal" true
        (Corpus.total_calls c <= Corpus.total_calls full);
      Alcotest.(check bool) "nonempty" true (Corpus.total_calls c > 0);
      Array.iter
        (fun (p : Program.t) ->
          if p.Program.calls = [] then Alcotest.fail "empty program survived";
          List.iter
            (fun (call : Program.call) ->
              List.iter
                (fun cat ->
                  if not (List.mem cat keep) then
                    Alcotest.failf "call %s outside keep set"
                      call.Program.spec.Spec.name)
                call.Program.spec.Spec.categories)
            p.Program.calls)
        (Corpus.programs c)

let test_restrict_nothing_survives () =
  (* A process-only corpus has no fs calls at all. *)
  let corpus = Corpus.of_programs [ program_of_calls ~id:0 [ "getpid" ] ] in
  Alcotest.(check bool) "None" true
    (Profile.restrict corpus ~keep:[ Category.File_io ] = None)

(* --- compiled specs --------------------------------------------------- *)

let test_compile () =
  let spec = Specializer.compile (fs_profile ()) in
  Alcotest.(check bool) "enforce by default" true
    (spec.Kspec.mode = Kspec.Enforce);
  Alcotest.(check bool) "allows open" true (Kspec.allows spec "open");
  Alcotest.(check bool) "denies mmap" false (Kspec.allows spec "mmap");
  Alcotest.(check bool) "retained has file-io" true
    (List.mem Category.File_io spec.Kspec.retained);
  Alcotest.(check bool) "reachable in (0,1]" true
    (spec.Kspec.reachable > 0.0 && spec.Kspec.reachable <= 1.0)

let test_compile_empty_profile_rejected () =
  let p =
    {
      Profile.name = "empty";
      syscalls = [];
      categories = [];
      coverage = Coverage.Set.empty;
    }
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Specializer.compile p);
       false
     with Invalid_argument _ -> true)

let test_reachable_monotone () =
  let all = Array.to_list (Array.map (fun s -> s.Spec.name) Syscalls.all) in
  let prefix n = List.filteri (fun i _ -> i < n) all in
  let fractions =
    List.map
      (fun n -> Specializer.reachable_fraction ~allowlist:(prefix n))
      [ 1; 4; 16; List.length all ]
  in
  let rec is_sorted = function
    | a :: (b :: _ as rest) -> a <= b && is_sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone in the allowlist" true (is_sorted fractions);
  Alcotest.(check (float 1e-9)) "full table reaches everything" 1.0
    (List.nth fractions 3);
  Alcotest.(check (float 1e-9)) "unknown names reach nothing" 0.0
    (Specializer.reachable_fraction ~allowlist:[ "frobnicate" ])

let test_kernel_config_pruning () =
  (* fs-only profile: journal machinery stays, scheduler/memory
     machinery goes. *)
  let config =
    Specializer.kernel_config (Specializer.compile (fs_profile ()))
  in
  Alcotest.(check bool) "journal retained" true
    config.Kernel_config.enable_journal_daemon;
  Alcotest.(check bool) "kswapd pruned" false config.Kernel_config.enable_kswapd;
  Alcotest.(check bool) "balancer pruned" false
    config.Kernel_config.enable_load_balancer;
  Alcotest.(check bool) "timer noise pruned" false
    config.Kernel_config.enable_timer_noise;
  Alcotest.(check bool) "tlb shootdown pruned" false
    config.Kernel_config.enable_tlb_shootdown

(* --- enforcement through Env ----------------------------------------- *)

let deploy_with_policy ~mode () =
  let denied = ref [] in
  let engine = Engine.create ~seed:3 () in
  Engine.add_probe engine (function
    | Engine.Denied { syscall; enforced; _ } ->
        denied := (syscall, enforced) :: !denied
    | _ -> ());
  let env =
    Env.deploy ~engine ~kernel_config:quiet Env.Native (Partition.table1 1)
  in
  let spec = Specializer.compile ~mode (fs_profile ()) in
  Specializer.install env ~rank:0 spec;
  (engine, env, denied)

let test_enforce_denial () =
  let engine, env, denied = deploy_with_policy ~mode:Kspec.Enforce () in
  let mmap = Option.get (Syscalls.by_name "mmap") in
  let opn = Option.get (Syscalls.by_name "open") in
  let outcomes = ref [] in
  Engine.spawn engine (fun () ->
      let call spec = timed engine (fun () -> Env.try_syscall env ~rank:0 spec Arg.default) in
      outcomes := call mmap :: !outcomes;
      outcomes := call opn :: !outcomes);
  Engine.run engine;
  (match List.rev !outcomes with
  | [ (Env.Denied, latency_ns); (Env.Completed, _) ] ->
      Alcotest.(check bool) "denial pays the entry path" true (latency_ns > 0.0)
  | _ -> Alcotest.fail "expected one denial then one completion");
  Alcotest.(check int) "one denial charged" 1 (Specializer.denials env ~rank:0);
  Alcotest.(check bool) "probe saw an enforced denial" true
    (List.mem ("mmap", true) !denied)

let test_audit_lets_call_run () =
  let engine, env, denied = deploy_with_policy ~mode:Kspec.Audit () in
  let mmap = Option.get (Syscalls.by_name "mmap") in
  let outcome = ref None in
  Engine.spawn engine (fun () ->
      outcome := Some (timed engine (fun () -> Env.try_syscall env ~rank:0 mmap Arg.default)));
  Engine.run engine;
  (match !outcome with
  | Some (Env.Completed, latency) ->
      Alcotest.(check bool) "ran to completion" true (latency > 0.0)
  | _ -> Alcotest.fail "audit mode must not block the call");
  Alcotest.(check int) "denial still counted" 1 (Specializer.denials env ~rank:0);
  Alcotest.(check bool) "probe saw an unenforced denial" true
    (List.mem ("mmap", false) !denied)

let test_exec_syscall_charges_denial () =
  let engine, env, _ = deploy_with_policy ~mode:Kspec.Enforce () in
  let mmap = Option.get (Syscalls.by_name "mmap") in
  let latency = ref nan in
  Engine.spawn engine (fun () ->
      latency := snd (timed engine (fun () -> Env.exec_syscall env ~rank:0 mmap Arg.default)));
  Engine.run engine;
  Alcotest.(check bool) "entry-path latency only" true
    (!latency > 0.0 && !latency < 5_000.0);
  Alcotest.(check int) "denial charged" 1 (Specializer.denials env ~rank:0)

let test_functional_surface_area () =
  let engine = Engine.create () in
  let env =
    Env.deploy ~engine ~kernel_config:quiet Env.Native (Partition.table1 1)
  in
  let structural = Env.surface_area_of_rank env 0 in
  let spec = Specializer.compile (fs_profile ()) in
  Specializer.install env ~rank:0 spec;
  let functional = Env.surface_area_of_rank env 0 in
  Alcotest.(check (float 1e-9))
    "structural x reachable"
    (structural *. spec.Kspec.reachable)
    functional;
  Alcotest.(check (float 1e-9)) "rank 1 unaffected" structural
    (Env.surface_area_of_rank env 1)

let test_surface_area_shrinks_with_allowlist () =
  (* nested profiles => nested allowlists => monotone functional area *)
  let small =
    Specializer.compile
      (Profile.of_corpus ~name:"small"
         (Corpus.of_programs [ program_of_calls ~id:0 [ "read" ] ]))
  in
  let large = Specializer.compile (fs_profile ()) in
  let area spec =
    let engine = Engine.create () in
    let env =
      Env.deploy ~engine ~kernel_config:quiet Env.Native (Partition.table1 1)
    in
    Specializer.install env ~rank:0 spec;
    Env.surface_area_of_rank env 0
  in
  Alcotest.(check bool) "smaller allowlist, smaller area" true
    (area small < area large)

(* --- multikernel deployment ------------------------------------------ *)

let test_deploy_multikernel () =
  let engine = Engine.create () in
  let env =
    Env.deploy ~engine ~kernel_config:quiet Env.Multikernel (Partition.table1 8)
  in
  Alcotest.(check string) "kind name" "multikernel"
    (Env.kind_name (Env.kind env));
  Alcotest.(check int) "one kernel per unit" 8 (List.length (Env.instances env));
  Alcotest.(check int) "64 ranks" 64 (Env.rank_count env);
  Alcotest.(check bool) "rank 63 in unit 7" true
    (Env.instance_of_rank env 63 == List.nth (Env.instances env) 7)

let test_multikernel_native_cost () =
  (* getpid on a multikernel rank costs the same order as native — no
     virtualization tax — while KVM pays exits. *)
  let spec = Option.get (Syscalls.by_name "getpid") in
  let mean_of kind =
    let engine = Engine.create ~seed:9 () in
    let env = Env.deploy ~engine ~kernel_config:quiet kind (Partition.table1 8) in
    let total = ref 0.0 in
    Engine.spawn engine (fun () ->
        for _ = 1 to 100 do
          total :=
            !total +. snd (timed engine (fun () -> Env.exec_syscall env ~rank:0 spec Arg.default))
        done);
    Engine.run engine;
    !total /. 100.0
  in
  let native = mean_of Env.Native in
  let mk = mean_of Env.Multikernel in
  let kvm = mean_of (Env.Kvm Virt_config.default) in
  Alcotest.(check bool) "multikernel within 2x of native" true
    (mk < 2.0 *. native);
  Alcotest.(check bool) "kvm pays more than multikernel" true (kvm > mk)

let suite =
  [
    Alcotest.test_case "profile of corpus" `Quick test_profile_of_corpus;
    Alcotest.test_case "recorder matches of_corpus" `Quick
      test_profile_recorder_matches_of_corpus;
    Alcotest.test_case "restrict" `Quick test_restrict;
    Alcotest.test_case "restrict: nothing survives" `Quick
      test_restrict_nothing_survives;
    Alcotest.test_case "compile" `Quick test_compile;
    Alcotest.test_case "compile rejects empty profile" `Quick
      test_compile_empty_profile_rejected;
    Alcotest.test_case "reachable fraction monotone" `Quick
      test_reachable_monotone;
    Alcotest.test_case "kernel config pruning" `Quick test_kernel_config_pruning;
    Alcotest.test_case "enforce denial" `Quick test_enforce_denial;
    Alcotest.test_case "audit lets call run" `Quick test_audit_lets_call_run;
    Alcotest.test_case "exec_syscall charges denial" `Quick
      test_exec_syscall_charges_denial;
    Alcotest.test_case "functional surface area" `Quick
      test_functional_surface_area;
    Alcotest.test_case "surface area shrinks with allowlist" `Quick
      test_surface_area_shrinks_with_allowlist;
    Alcotest.test_case "deploy multikernel" `Quick test_deploy_multikernel;
    Alcotest.test_case "multikernel native cost" `Quick
      test_multikernel_native_cost;
  ]
