(* The static analysis layer (lib/staticcheck): soundness against the
   dynamic simulator, stock-table certification, and the negative
   controls (a seeded AB/BA inversion and a deliberately gapped
   allowlist) that prove the pass actually flags what it claims to. *)

open Ksurf
module Finding = Ksurf_analysis.Finding
module Lockdep = Ksurf_analysis.Lockdep
module S = Staticcheck

let codes fs = List.map (fun (f : Finding.t) -> f.Finding.code) fs

(* --- footprints -------------------------------------------------------- *)

let footprint name =
  match Footprint.find (Footprint.all ()) name with
  | Some fp -> fp
  | None -> Alcotest.failf "no footprint for %s" name

let test_footprint_spots () =
  let locks name =
    List.map Ops.lock_ref_name (footprint name).Footprint.locks
  in
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "rename takes %s" l)
        true
        (List.mem l (locks "rename")))
    [ "dcache"; "inode"; "journal" ];
  (* Implied acquisitions: a page-cache probe can miss and fill under
     the tree lock even though the op program never names it. *)
  Alcotest.(check bool) "read may take the page-cache tree" true
    (List.mem "pct" (Footprint.lock_classes (footprint "read")));
  Alcotest.(check bool) "munmap broadcasts IPIs" true
    (footprint "munmap").Footprint.ipi;
  Alcotest.(check bool) "getpid takes no locks" true
    ((footprint "getpid").Footprint.locks = []);
  Alcotest.(check int) "one footprint per table entry"
    (Array.length Ksurf_syscalls.Syscalls.all)
    (List.length (Footprint.all ()));
  List.iter
    (fun fp ->
      Alcotest.(check bool)
        (fp.Footprint.name ^ " enumerated a non-empty lattice")
        true
        (fp.Footprint.arg_points > 0))
    (Footprint.all ())

(* --- static/dynamic lock agreement ------------------------------------- *)

(* Execute every syscall's op program through a real Instance at every
   lattice point and assert the locks actually acquired are a subset of
   the static footprint.  This is the soundness direction the whole
   layer rests on: static ⊇ dynamic, point by point. *)
let test_agreement_locks () =
  Array.iter
    (fun (spec : Spec.t) ->
      let observed = ref [] in
      let engine = Engine.create ~seed:42 () in
      Engine.add_probe engine (fun ev ->
          match ev with
          | Engine.Sync
              {
                name;
                op =
                  ( Engine.Acquire _ | Engine.Read_acquire _
                  | Engine.Write_acquire _ );
                _;
              } ->
              let cls = Lock.class_of_name name in
              if not (List.mem cls !observed) then observed := cls :: !observed
          | _ -> ());
      let inst =
        Instance.boot ~engine ~config:Kernel_config.default ~id:0 ~cores:4
          ~mem_mb:1024 ()
      in
      let cg = Instance.register_cgroup inst in
      Engine.spawn ~at:0.0 engine (fun () ->
          List.iter
            (fun (arg : Arg.t) ->
              let ctx =
                {
                  Instance.core = 0;
                  tenant = 0;
                  key = arg.Arg.obj;
                  cgroup = Some cg;
                }
              in
              Instance.exec_program inst ctx (spec.Spec.ops arg))
            (Footprint.lattice_points spec.Spec.arg_model));
      Engine.run engine;
      let static = Footprint.lock_classes (footprint spec.Spec.name) in
      List.iter
        (fun cls ->
          if not (List.mem cls static) then
            Alcotest.failf
              "%s dynamically acquired %s, absent from its static footprint \
               [%s]"
              spec.Spec.name cls
              (String.concat " " static))
        !observed)
    Ksurf_syscalls.Syscalls.all

(* --- static/dynamic reachability agreement ------------------------------ *)

let quick_corpus seed =
  (Generator.run ~params:{ Generator.default_params with seed } ())
    .Generator.corpus

let test_agreement_reachability () =
  let corpus = quick_corpus 42 in
  (* Full workload: the profile's syscall set must sit inside the
     whole-table static reachability set (trivially all names, but the
     subset must hold by name). *)
  let full_profile = Profile.of_corpus ~name:"full" corpus in
  let all_names = S.reachable_names () in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " statically reachable") true
        (List.mem n all_names))
    full_profile.Profile.syscalls;
  (* fs workload: restrict like the kspec study does, then the
     restricted profile must sit inside the File_io+Fs_mgmt static
     reachability set. *)
  let keep = [ Category.File_io; Category.Fs_mgmt ] in
  match Profile.restrict corpus ~keep with
  | None -> Alcotest.fail "fs restriction dropped the whole corpus"
  | Some fs_corpus ->
      let fs_profile = Profile.of_corpus ~name:"fs" fs_corpus in
      let fs_names = S.reachable_names ~keep () in
      List.iter
        (fun n ->
          Alcotest.(check bool) (n ^ " reachable under File_io+Fs_mgmt") true
            (List.mem n fs_names))
        fs_profile.Profile.syscalls;
      (* The static surface-area number upper-bounds the dynamic one:
         the allowlist's reachable universe contains everything the
         corpus actually covered. *)
      let spec = Specializer.compile fs_profile in
      let static = S.static_surface ~allowlist:spec.Kspec.allowlist in
      let dynamic = S.dynamic_surface fs_profile in
      Alcotest.(check bool)
        (Printf.sprintf "static %.4f >= dynamic %.4f" static dynamic)
        true (static >= dynamic)

(* --- lock-order graph --------------------------------------------------- *)

let test_stock_table_certified () =
  let g = Lockgraph.of_table () in
  Alcotest.(check (list string)) "stock table is cycle-free" []
    (codes (Lockgraph.cycles g));
  let has_edge src dst =
    List.exists
      (fun (e : Lockgraph.edge) -> e.Lockgraph.src = src && e.Lockgraph.dst = dst)
      g.Lockgraph.edges
  in
  Alcotest.(check bool) "dcache -> inode (rename family)" true
    (has_edge "dcache" "inode");
  Alcotest.(check bool) "inode -> journal (journalled updates)" true
    (has_edge "inode" "journal");
  Alcotest.(check bool) "hierarchy has no reverse edges" false
    (has_edge "inode" "dcache" || has_edge "journal" "inode"
    || has_edge "journal" "dcache")

let nested name number outer inner =
  Spec.make ~name ~number ~categories:[ Category.Ipc ] ~doc:"inversion control"
    (fun _ ->
      [
        Ops.With_lock
          (outer, Dist.constant 100.0, [ Ops.Lock (inner, Dist.constant 50.0) ]);
      ])

(* The AB/BA pattern the dynamic Inversion scenario only catches when
   the schedule interleaves the two sides: the static graph must flag
   it from the table alone. *)
let test_seeded_inversion_flagged () =
  let ab = nested "ab_control" 9001 Ops.Tasklist Ops.Zone in
  let ba = nested "ba_control" 9002 Ops.Zone Ops.Tasklist in
  Alcotest.(check (list string)) "AB alone is clean" []
    (codes (Lockgraph.cycles (Lockgraph.of_specs [ ab ])));
  let findings = Lockgraph.cycles (Lockgraph.of_specs [ ab; ba ]) in
  Alcotest.(check (list string)) "AB/BA is one cycle"
    [ "static-lock-order-cycle" ] (codes findings);
  let f = List.hd findings in
  Alcotest.(check bool) "names tasklist" true
    (Test_util.contains ~sub:"tasklist" f.Finding.message);
  Alcotest.(check bool) "names zone" true
    (Test_util.contains ~sub:"zone" f.Finding.message);
  Alcotest.(check bool) "witnesses both sides" true
    (List.length f.Finding.witness >= 2);
  Alcotest.(check bool) "severity error" true
    (f.Finding.severity = Finding.Error)

(* --- interference matrix ------------------------------------------------ *)

let test_interference () =
  let m = Interference.of_table () in
  Alcotest.(check bool) "creat and fsync contend on the journal" true
    (List.mem "journal" (Interference.shared_locks m "creat" "fsync"));
  Alcotest.(check (list string)) "getpid interferes with nothing" []
    (Interference.shared_locks m "getpid" "read");
  Alcotest.(check bool) "some but not all pairs interfere" true
    (Interference.interfering_pairs m > 0
    && Interference.interfering_pairs m < Interference.total_pairs m);
  (* Striped locks are excluded by construction. *)
  List.iter
    (fun cls ->
      Alcotest.(check bool) (cls ^ " is instance-global") true
        (List.mem cls Interference.global_classes))
    (List.map fst m.Interference.classes)

(* --- allowlist verification --------------------------------------------- *)

let keep_fs = [ Category.File_io; Category.Fs_mgmt ]

let profile_ctl =
  {
    Profile.name = "ctl";
    syscalls = [ "fsync"; "read" ];
    categories = [ (Category.File_io, 2); (Category.Fs_mgmt, 1) ];
    coverage = Coverage.Set.empty;
  }

let kspec ?(mode = Kspec.Enforce) allowlist =
  {
    Kspec.profile_name = "ctl";
    allowlist;
    retained = keep_fs;
    mode;
    reachable = 0.5;
  }

let verify ?(config = Kernel_config.default) spec =
  S.verify ~workload:"ctl" ~keep:keep_fs ~profile:profile_ctl ~spec ~config ()

let test_exact_allowlist_certifies () =
  let r = verify (kspec [ "fsync"; "read" ]) in
  Alcotest.(check (list string)) "no findings" [] (codes r.S.findings);
  Alcotest.(check (list string)) "no gaps" [] r.S.gaps;
  Alcotest.(check (list string)) "no slack" [] r.S.slack

let test_gapped_allowlist_flagged () =
  let r = verify (kspec [ "read" ]) in
  Alcotest.(check (list string)) "fsync is the gap" [ "fsync" ] r.S.gaps;
  (match r.S.findings with
  | [ f ] ->
      Alcotest.(check string) "code" "allowlist-gap" f.Finding.code;
      Alcotest.(check bool) "ENOSYS hazard is an error under Enforce" true
        (f.Finding.severity = Finding.Error);
      Alcotest.(check bool) "names the call" true
        (Test_util.contains ~sub:"fsync" f.Finding.message)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs));
  (* Audit mode: same gap, only a warning. *)
  let r = verify (kspec ~mode:Kspec.Audit [ "read" ]) in
  match r.S.findings with
  | [ f ] ->
      Alcotest.(check bool) "warning under Audit" true
        (f.Finding.severity = Finding.Warning)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_slack_flagged () =
  (* mmap is Memory-only: allowed but unreachable under File_io+Fs_mgmt. *)
  let r = verify (kspec [ "fsync"; "mmap"; "read" ]) in
  Alcotest.(check (list string)) "mmap is slack" [ "mmap" ] r.S.slack;
  match r.S.findings with
  | [ f ] ->
      Alcotest.(check string) "code" "allowlist-slack" f.Finding.code;
      Alcotest.(check bool) "slack is a warning" true
        (f.Finding.severity = Finding.Warning)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_machinery_pruned_flagged () =
  (* fsync dirties the journal; a config that pruned the journal
     daemon while still allowing fsync is a latent hazard. *)
  let config =
    Kernel_config.without_machinery Ops.Journal_daemon Kernel_config.default
  in
  let r = verify ~config (kspec [ "fsync"; "read" ]) in
  match r.S.findings with
  | [ f ] ->
      Alcotest.(check string) "code" "machinery-pruned" f.Finding.code;
      Alcotest.(check bool) "names fsync" true
        (Test_util.contains ~sub:"fsync" f.Finding.message)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_stock_workload_verifies_clean () =
  (* The kspec study's own triple (profile, compiled allowlist, pruned
     config) must certify clean: exact allowlist, no slack, no
     machinery hazard — the specializer retains what its calls need. *)
  let corpus = quick_corpus 42 in
  match Profile.restrict corpus ~keep:keep_fs with
  | None -> Alcotest.fail "fs restriction dropped the whole corpus"
  | Some fs_corpus ->
      let profile = Profile.of_corpus ~name:"fs" fs_corpus in
      let spec = Specializer.compile profile in
      let config = Specializer.kernel_config spec in
      let r =
        S.verify ~workload:"fs" ~keep:keep_fs ~profile ~spec ~config ()
      in
      Alcotest.(check (list string)) "stock triple certifies clean" []
        (codes r.S.findings)

let suite =
  [
    Alcotest.test_case "footprint spot checks" `Quick test_footprint_spots;
    Alcotest.test_case "dynamic locks within static footprint" `Quick
      test_agreement_locks;
    Alcotest.test_case "dynamic profile within static reachability" `Quick
      test_agreement_reachability;
    Alcotest.test_case "stock table certified cycle-free" `Quick
      test_stock_table_certified;
    Alcotest.test_case "seeded AB/BA inversion flagged" `Quick
      test_seeded_inversion_flagged;
    Alcotest.test_case "interference matrix" `Quick test_interference;
    Alcotest.test_case "exact allowlist certifies" `Quick
      test_exact_allowlist_certifies;
    Alcotest.test_case "gapped allowlist flagged" `Quick
      test_gapped_allowlist_flagged;
    Alcotest.test_case "slack flagged" `Quick test_slack_flagged;
    Alcotest.test_case "pruned machinery flagged" `Quick
      test_machinery_pruned_flagged;
    Alcotest.test_case "stock fs triple clean" `Quick
      test_stock_workload_verifies_clean;
  ]
