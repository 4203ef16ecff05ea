open Ksurf

(* --- programs --------------------------------------------------------- *)

let test_random_program_length () =
  let rng = Prng.create 1 in
  for _ = 1 to 50 do
    let p = Program.random rng ~id:0 ~min_len:3 ~max_len:7 in
    let n = Program.length p in
    if n < 3 || n > 7 then Alcotest.failf "length %d out of bounds" n
  done

let test_program_roundtrip () =
  let rng = Prng.create 2 in
  for id = 0 to 20 do
    let p = Program.random rng ~id ~min_len:1 ~max_len:10 in
    match Program.of_string ~id (Program.to_string p) with
    | Ok p' ->
        Alcotest.(check bool) "roundtrip equal" true (Program.equal p p')
    | Error e -> Alcotest.failf "parse failed: %s" e
  done

let test_parse_errors () =
  let bad input =
    match Program.of_string ~id:0 input with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "unknown syscall" true (bad "frobnicate(0:0:0)");
  Alcotest.(check bool) "bad args" true (bad "read(x)");
  Alcotest.(check bool) "missing paren" true (bad "read");
  Alcotest.(check bool) "a whole call parses" false (bad "getpid(0:0:0)");
  Alcotest.(check bool) "junk after the call" true (bad "getpid(0:0:0)junk");
  Alcotest.(check bool) "empty program" true (bad "   \n  ")

let test_call_site_out_of_range () =
  let rng = Prng.create 4 in
  let p = Program.random rng ~id:0 ~min_len:1 ~max_len:1 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Program.call_site p 5);
       false
     with Invalid_argument _ -> true)

(* --- coverage --------------------------------------------------------- *)

let test_coverage_deterministic () =
  let rng = Prng.create 5 in
  let p = Program.random rng ~id:0 ~min_len:5 ~max_len:5 in
  let a = Coverage.of_program p and b = Coverage.of_program p in
  Alcotest.(check int) "same size" (Coverage.Set.cardinal a)
    (Coverage.Set.cardinal b);
  Alcotest.(check bool) "subset both ways" true
    (Coverage.Set.subset a b && Coverage.Set.subset b a)

let test_coverage_nonempty () =
  let spec = Option.get (Syscalls.by_name "open") in
  let cov = Coverage.blocks_of_call ~prev:None spec Arg.default in
  Alcotest.(check bool) "has blocks" true (Coverage.Set.cardinal cov > 0)

let test_edge_blocks () =
  let open_ = Option.get (Syscalls.by_name "open") in
  let read = Option.get (Syscalls.by_name "read") in
  let without = Coverage.blocks_of_call ~prev:None read Arg.default in
  let with_edge = Coverage.blocks_of_call ~prev:(Some open_) read Arg.default in
  Alcotest.(check int) "edge adds exactly one block"
    (Coverage.Set.cardinal without + 1)
    (Coverage.Set.cardinal with_edge)

let test_arg_selects_paths () =
  (* Different size buckets cover different blocks for size-sensitive
     calls. *)
  let read = Option.get (Syscalls.by_name "read") in
  let small = Coverage.blocks_of_call ~prev:None read { Arg.size = 64; obj = 0; flags = 0 } in
  let large =
    Coverage.blocks_of_call ~prev:None read { Arg.size = 1 lsl 20; obj = 0; flags = 0 }
  in
  Alcotest.(check bool) "distinct blocks" false
    (Coverage.Set.subset large small && Coverage.Set.subset small large)

let test_universe_estimate () =
  Alcotest.(check bool) "positive" true (Coverage.universe_estimate () > 1000)

(* --- mutation --------------------------------------------------------- *)

let base_program seed =
  Program.random (Prng.create seed) ~id:0 ~min_len:4 ~max_len:4

let test_mutate_never_empty () =
  let rng = Prng.create 7 in
  List.iteri
    (fun k op ->
      let p = ref (base_program 11) in
      for i = 1 to 30 do
        p :=
          Mutate.apply rng
            ~corpus_pick:(fun () -> Some (base_program (i + 50)))
            ~id:i op !p;
        if Program.length !p = 0 then
          Alcotest.failf "operator %d of all_ops produced an empty program" k
      done)
    Mutate.all_ops

let test_insert_grows () =
  let rng = Prng.create 8 in
  let p = base_program 1 in
  let p' = Mutate.apply rng ~corpus_pick:(fun () -> None) ~id:1 Mutate.Insert p in
  Alcotest.(check int) "one longer" (Program.length p + 1) (Program.length p')

let test_remove_shrinks () =
  let rng = Prng.create 9 in
  let p = base_program 2 in
  let p' = Mutate.apply rng ~corpus_pick:(fun () -> None) ~id:1 Mutate.Remove p in
  Alcotest.(check int) "one shorter" (Program.length p - 1) (Program.length p')

let test_replace_arg_keeps_structure () =
  let rng = Prng.create 10 in
  let p = base_program 3 in
  let p' =
    Mutate.apply rng ~corpus_pick:(fun () -> None) ~id:1 Mutate.Replace_arg p
  in
  Alcotest.(check int) "same length" (Program.length p) (Program.length p');
  List.iteri
    (fun i (c : Program.call) ->
      let c' = Program.call_site p' i in
      Alcotest.(check string) "same syscall" c.Program.spec.Spec.name
        c'.Program.spec.Spec.name)
    p.Program.calls

let test_swap_preserves_multiset () =
  let rng = Prng.create 11 in
  let p = base_program 4 in
  let p' = Mutate.apply rng ~corpus_pick:(fun () -> None) ~id:1 Mutate.Swap p in
  let names prog =
    List.map (fun (c : Program.call) -> c.Program.spec.Spec.name) prog.Program.calls
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "same multiset" (names p) (names p')

(* --- generator -------------------------------------------------------- *)

let quick_params =
  { Generator.default_params with Generator.target_programs = 12 }

let test_generator_deterministic () =
  let a = Generator.run ~params:quick_params () in
  let b = Generator.run ~params:quick_params () in
  Alcotest.(check int) "same corpus size"
    (Corpus.program_count a.Generator.corpus)
    (Corpus.program_count b.Generator.corpus);
  Alcotest.(check int) "same coverage" a.Generator.coverage_blocks
    b.Generator.coverage_blocks;
  Alcotest.(check string) "identical corpora"
    (Corpus.to_string a.Generator.corpus)
    (Corpus.to_string b.Generator.corpus)

let test_generator_seed_changes_corpus () =
  let a = Generator.run ~params:quick_params () in
  let b = Generator.run ~params:{ quick_params with Generator.seed = 77 } () in
  Alcotest.(check bool) "different corpora" true
    (Corpus.to_string a.Generator.corpus <> Corpus.to_string b.Generator.corpus)

let test_admission_property () =
  (* Each program must cover blocks no earlier program covers. *)
  let report = Generator.run ~params:quick_params () in
  let programs = Corpus.programs report.Generator.corpus in
  let seen = ref Coverage.Set.empty in
  Array.iter
    (fun p ->
      let cov = Coverage.of_program p in
      if Coverage.Set.diff_cardinal cov !seen = 0 then
        Alcotest.failf "program %d adds no coverage" p.Program.id;
      seen := Coverage.Set.union !seen cov)
    programs

let test_minimise_preserves_contribution () =
  let rng = Prng.create 21 in
  let against = Coverage.of_program (Program.random rng ~id:0 ~min_len:5 ~max_len:5) in
  let p = Program.random rng ~id:1 ~min_len:8 ~max_len:8 in
  let m = Generator.minimise ~against p in
  Alcotest.(check bool) "not longer" true (Program.length m <= Program.length p);
  Alcotest.(check bool) "nonempty" true (Program.length m >= 1);
  Alcotest.(check int) "same new-block contribution"
    (Coverage.Set.diff_cardinal (Coverage.of_program p) against)
    (Coverage.Set.diff_cardinal (Coverage.of_program m) against)

(* --- corpus ----------------------------------------------------------- *)

let test_corpus_roundtrip () =
  let report = Generator.run ~params:quick_params () in
  let corpus = report.Generator.corpus in
  match Corpus.of_string (Corpus.to_string corpus) with
  | Ok corpus' ->
      Alcotest.(check int) "program count" (Corpus.program_count corpus)
        (Corpus.program_count corpus');
      Alcotest.(check int) "call count" (Corpus.total_calls corpus)
        (Corpus.total_calls corpus');
      Alcotest.(check int) "coverage preserved"
        (Coverage.Set.cardinal (Corpus.coverage corpus))
        (Coverage.Set.cardinal (Corpus.coverage corpus'))
  | Error e -> Alcotest.failf "reload failed: %s" e

let test_corpus_save_load () =
  let report = Generator.run ~params:quick_params () in
  let path = Filename.temp_file "ksurf-test" ".corpus" in
  Corpus.save report.Generator.corpus path;
  (match Corpus.load path with
  | Ok c ->
      Alcotest.(check int) "calls" (Corpus.total_calls report.Generator.corpus)
        (Corpus.total_calls c)
  | Error e -> Alcotest.failf "load: %s" e);
  Sys.remove path

let test_corpus_category_histogram () =
  let report = Generator.run ~params:quick_params () in
  let hist = Corpus.category_histogram report.Generator.corpus in
  Alcotest.(check int) "six categories" 6 (List.length hist);
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 hist in
  (* Multi-category calls count once per category. *)
  Alcotest.(check bool) "at least one site per category sum" true
    (total >= Corpus.total_calls report.Generator.corpus)

let test_corpus_empty_rejected () =
  Alcotest.(check bool) "empty list" true
    (try
       ignore (Corpus.of_programs []);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty string" true
    (match Corpus.of_string "" with Error _ -> true | Ok _ -> false)

let suite =
  [
    Alcotest.test_case "random program length" `Quick test_random_program_length;
    Alcotest.test_case "program roundtrip" `Quick test_program_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "call_site bounds" `Quick test_call_site_out_of_range;
    Alcotest.test_case "coverage deterministic" `Quick test_coverage_deterministic;
    Alcotest.test_case "coverage nonempty" `Quick test_coverage_nonempty;
    Alcotest.test_case "edge blocks" `Quick test_edge_blocks;
    Alcotest.test_case "args select paths" `Quick test_arg_selects_paths;
    Alcotest.test_case "universe estimate" `Quick test_universe_estimate;
    Alcotest.test_case "mutants never empty" `Quick test_mutate_never_empty;
    Alcotest.test_case "insert grows" `Quick test_insert_grows;
    Alcotest.test_case "remove shrinks" `Quick test_remove_shrinks;
    Alcotest.test_case "replace keeps structure" `Quick
      test_replace_arg_keeps_structure;
    Alcotest.test_case "swap preserves multiset" `Quick
      test_swap_preserves_multiset;
    Alcotest.test_case "generator deterministic" `Quick
      test_generator_deterministic;
    Alcotest.test_case "seed changes corpus" `Quick
      test_generator_seed_changes_corpus;
    Alcotest.test_case "admission property" `Quick test_admission_property;
    Alcotest.test_case "minimise preserves contribution" `Quick
      test_minimise_preserves_contribution;
    Alcotest.test_case "corpus roundtrip" `Quick test_corpus_roundtrip;
    Alcotest.test_case "corpus save/load" `Quick test_corpus_save_load;
    Alcotest.test_case "category histogram" `Quick test_corpus_category_histogram;
    Alcotest.test_case "empty corpus rejected" `Quick test_corpus_empty_rejected;
  ]

let test_paper_scale_growth () =
  let params =
    { quick_params with Generator.target_calls = Some 600 }
  in
  let report = Generator.run ~params () in
  let corpus = report.Generator.corpus in
  Alcotest.(check bool) "reaches the call target" true
    (Corpus.total_calls corpus >= 600);
  (* Growth must not lose coverage relative to the strict corpus. *)
  let strict = (Generator.run ~params:quick_params ()).Generator.corpus in
  Alcotest.(check bool) "coverage at least the strict corpus's" true
    (Coverage.Set.cardinal (Corpus.coverage corpus)
    >= Coverage.Set.cardinal (Corpus.coverage strict))

let test_paper_scale_deterministic () =
  let params = { quick_params with Generator.target_calls = Some 300 } in
  let a = Generator.run ~params () and b = Generator.run ~params () in
  Alcotest.(check string) "same corpus"
    (Corpus.to_string a.Generator.corpus)
    (Corpus.to_string b.Generator.corpus)

let suite =
  suite
  @ [
      Alcotest.test_case "paper-scale growth" `Quick test_paper_scale_growth;
      Alcotest.test_case "paper-scale deterministic" `Quick
        test_paper_scale_deterministic;
    ]

(* --- serialisation and ordering properties ---------------------------- *)

(* Satellite of the kspec PR: Profile serialisation leans on corpus
   round-trips and on Coverage.Set's stable iteration order, so both
   are pinned here as properties over seeded corpora. *)

let seeded_corpus seed =
  (Generator.run ~params:{ quick_params with Generator.seed } ()).Generator.corpus

let test_corpus_roundtrip_property () =
  List.iter
    (fun seed ->
      let c = seeded_corpus seed in
      match Corpus.of_string (Corpus.to_string c) with
      | Error e -> Alcotest.failf "seed %d: parse failed: %s" seed e
      | Ok c' ->
          Alcotest.(check int) "program count" (Corpus.program_count c)
            (Corpus.program_count c');
          Alcotest.(check int) "coverage cardinal"
            (Coverage.Set.cardinal (Corpus.coverage c))
            (Coverage.Set.cardinal (Corpus.coverage c'));
          Alcotest.(check bool) "category histogram" true
            (Corpus.category_histogram c = Corpus.category_histogram c'))
    [ 1; 2; 3; 5; 8; 13; 21; 42 ]

let suite =
  suite
  @ [
      Alcotest.test_case "corpus roundtrip property" `Quick
        test_corpus_roundtrip_property;
    ]
