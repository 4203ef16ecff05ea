open Ksurf
module E = Experiments

(* The kpar worker pool and the guarantees the sweeps build on it:
   order-preserving merge, deterministic failure, nested submission,
   and byte-identical study output at any job count. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_temp_dir f =
  let dir = Filename.temp_file "ksurf-par" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* --- Pool semantics ------------------------------------------------ *)

let test_map_preserves_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let cells = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "input order" (List.map (fun x -> x * x) cells)
        (Pool.map ~pool (fun x -> x * x) cells))

let test_map_empty_and_single () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Pool.map ~pool succ []);
      Alcotest.(check (list int)) "single" [ 2 ] (Pool.map ~pool succ [ 1 ]))

let test_jobs_one_is_sequential () =
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs" 1 (Pool.jobs pool);
      Alcotest.(check (list int))
        "map" [ 2; 3; 4 ]
        (Pool.map ~pool succ [ 1; 2; 3 ]))

let test_earliest_exception_wins () =
  (* Cells 3 and 11 both fail; whichever domain gets there first, the
     reported failure must be cell 3's — deterministically, every time. *)
  Pool.with_pool ~jobs:4 (fun pool ->
      for _ = 1 to 5 do
        match
          Pool.map ~pool
            (fun i -> if i = 3 || i = 11 then failwith (string_of_int i) else i)
            (List.init 16 Fun.id)
        with
        | _ -> Alcotest.fail "expected failure"
        | exception Failure msg ->
            Alcotest.(check string) "earliest cell" "3" msg
      done)

let test_nested_map_no_deadlock () =
  (* A worker task submitting its own batch must drain it itself even
     when every other domain is busy: jobs:2 and 4 outer cells would
     deadlock otherwise. *)
  Pool.with_pool ~jobs:2 (fun pool ->
      let sums =
        Pool.map ~pool
          (fun i ->
            Pool.map ~pool (fun j -> (10 * i) + j) [ 0; 1; 2 ]
            |> List.fold_left ( + ) 0)
          [ 0; 1; 2; 3 ]
      in
      Alcotest.(check (list int)) "nested" [ 3; 33; 63; 93 ] sums)

let test_default_jobs_env () =
  let saved = Sys.getenv_opt "KSURF_JOBS" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "KSURF_JOBS" (Option.value saved ~default:""))
    (fun () ->
      Unix.putenv "KSURF_JOBS" "3";
      Alcotest.(check int) "env honored" 3 (Pool.default_jobs ());
      Unix.putenv "KSURF_JOBS" "0";
      Alcotest.(check bool) "zero falls back" true (Pool.default_jobs () >= 1);
      Unix.putenv "KSURF_JOBS" "nope";
      Alcotest.(check bool) "garbage falls back" true (Pool.default_jobs () >= 1))

let test_shutdown () =
  let pool = Pool.create ~jobs:4 () in
  Alcotest.(check (list int)) "before" [ 1; 2 ] (Pool.map ~pool succ [ 0; 1 ]);
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.(check bool) "map after shutdown" true
    (try
       ignore (Pool.map ~pool succ [ 0 ]);
       false
     with Invalid_argument _ -> true)

(* --- Per-cell claiming ----------------------------------------------- *)

(* A cell whose cost is wildly index-dependent: cell 0 does ~300x the
   work of the median cell, and cost is otherwise sawtoothed, so the
   domains claim cells in a different interleaving on every run and
   finish them out of order.  Identical output at jobs=1 and jobs=8
   pins that the schedule changes only which domain runs a cell, never
   the merge order or the per-cell values. *)
let skewed_cell i =
  let rounds = if i = 0 then 300_000 else 1 + (i * 97 mod 1_000) in
  let h = ref i in
  for _ = 1 to rounds do
    h := Stable_hash.combine !h (!h lxor i)
  done;
  (i, !h)

let test_skewed_runtime_identity () =
  let cells = List.init 64 Fun.id in
  let seq = Pool.with_pool ~jobs:1 (fun pool -> Pool.map ~pool skewed_cell cells) in
  let par = Pool.with_pool ~jobs:8 (fun pool -> Pool.map ~pool skewed_cell cells) in
  Alcotest.(check (list (pair int int))) "jobs 1 = jobs 8" seq par

(* Many small batches in quick succession, most of them smaller than
   the pool: workers still finishing or dropping the previous batch
   miss its broadcast and must find the next one by re-scanning the
   queue.  This pins the no-lost-wakeup invariant — a lost wakeup would
   leave a batch unclaimed and hang the suite, and a miscounted [left]
   would hang the submitter's completion wait. *)
let test_many_small_batches () =
  Pool.with_pool ~jobs:4 (fun pool ->
      for round = 0 to 299 do
        let n = 1 + (round mod 5) in
        let expect = List.init n (fun i -> (round * 7) + i + 1) in
        Alcotest.(check (list int))
          (Printf.sprintf "round %d" round)
          expect
          (Pool.map ~pool succ (List.init n (fun i -> (round * 7) + i)))
      done)

(* Mapping while another domain shuts the pool down must be
   deterministic per call: each map either completes with full, correct
   results (its batch was accepted before the state flipped; the
   submitter drains it itself even with every worker gone) or raises
   Invalid_argument — never a hang, never partial output.  The state
   check runs under [pool.lock], so the flip cannot slip between check
   and enqueue. *)
let test_map_racing_shutdown () =
  let pool = Pool.create ~jobs:4 () in
  let closer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.02;
        Pool.shutdown pool)
  in
  let refused = ref false in
  (try
     while not !refused do
       match Pool.map ~pool succ [ 1; 2; 3; 4; 5; 6 ] with
       | r -> Alcotest.(check (list int)) "complete result" [ 2; 3; 4; 5; 6; 7 ] r
       | exception Invalid_argument _ -> refused := true
     done
   with e ->
     Domain.join closer;
     raise e);
  Domain.join closer;
  Alcotest.(check bool) "eventually refused" true !refused;
  (* And every map after the shutdown fails the same way. *)
  for _ = 1 to 3 do
    Alcotest.(check bool) "still refused" true
      (try
         ignore (Pool.map ~pool succ [ 1 ]);
         false
       with Invalid_argument _ -> true)
  done

(* --- Minor-heap sizing ------------------------------------------------ *)

(* Every domain that runs a cell has grown its own minor heap: the size
   is per domain, and a worker left at the runtime's 256k-word default
   turns an allocating sweep into a convoy of stop-the-world minor
   collections.  The cells sleep so that the workers claim some of
   them; the check covers every domain that ran one.  A user who sized
   the heap in the runtime's parameters keeps that size instead. *)
let test_workers_size_minor_heap () =
  let params =
    match Sys.getenv_opt "OCAMLRUNPARAM" with
    | Some p -> p
    | None -> Option.value (Sys.getenv_opt "CAMLRUNPARAM") ~default:""
  in
  if List.exists (String.starts_with ~prefix:"s=") (String.split_on_char ',' params)
  then Alcotest.skip ();
  let reports =
    Pool.with_pool ~jobs:4 (fun pool ->
        Pool.map ~pool
          (fun _ ->
            Unix.sleepf 0.005;
            ((Domain.self () :> int), (Gc.get ()).Gc.minor_heap_size))
          (List.init 32 Fun.id))
  in
  let domains = List.sort_uniq compare (List.map fst reports) in
  Alcotest.(check bool) "workers ran cells" true (List.length domains > 1);
  List.iter
    (fun (d, words) ->
      if words < 8 * 1024 * 1024 then
        Alcotest.failf "domain %d ran a cell with a %d-word minor heap" d words)
    reports

(* The runtime reads CAMLRUNPARAM when OCAMLRUNPARAM is unset, so an
   s=<n> there is the user's choice too and must survive
   [tune_minor_heap].  A fresh domain starts at the size the runtime
   parsed at start-up, which the variable set here does not change. *)
let test_tune_respects_camlrunparam () =
  if Sys.getenv_opt "OCAMLRUNPARAM" <> None then
    (* Set, even empty, it hides CAMLRUNPARAM from the runtime. *)
    Alcotest.skip ();
  Fun.protect
    ~finally:(fun () -> Unix.putenv "CAMLRUNPARAM" "")
    (fun () ->
      Unix.putenv "CAMLRUNPARAM" "s=1M";
      let before, after =
        Domain.join
          (Domain.spawn (fun () ->
               let before = (Gc.get ()).Gc.minor_heap_size in
               Pool.tune_minor_heap ();
               (before, (Gc.get ()).Gc.minor_heap_size)))
      in
      Alcotest.(check int) "user-sized minor heap kept" before after)

(* --- Determinism under parallelism --------------------------------- *)

(* dose and specialize, and two of the Breakdown tables (one code path
   for all four), render the same text and write the same CSV bytes with
   no pool as on a 4-domain pool. *)
let test_studies_pool_agnostic () =
  let corpus = lazy (E.default_corpus ~seed:11 E.Quick) in
  let outcome ?pool (s : E.study) =
    s.E.run (E.context ~seed:11 ~corpus ?pool E.Quick)
  in
  let render (o : E.outcome) = Format.asprintf "%t" o.E.render in
  let csv (o : E.outcome) =
    match o.E.csvs with
    | [] -> Alcotest.fail "entry without a CSV file"
    | csvs ->
        with_temp_dir (fun dir ->
            List.map (fun c -> read_file (E.write_csv ~dir c)) csvs)
  in
  List.iter
    (fun (s : E.study) ->
      if
        List.mem s.E.name [ "dose"; "specialize"; "table2"; "ablate" ]
      then begin
        let seq = outcome s
        and par = Pool.with_pool ~jobs:4 (fun pool -> outcome ~pool s) in
        Alcotest.(check string) (s.E.name ^ " rendering") (render seq) (render par);
        Alcotest.(check (list string)) (s.E.name ^ " csv bytes") (csv seq) (csv par)
      end)
    E.studies

(* --- The journal as single writer under parallel cells -------------- *)

let temp_journal () =
  let p = Filename.temp_file "ksurf-par" ".journal" in
  Sys.remove p;
  p

let test_journal_parallel_single_writer () =
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let j = Recov_journal.load ~flush_every:1 ~path () in
      let keys = List.init 32 (Printf.sprintf "cell:%d") in
      Pool.with_pool ~jobs:4 (fun pool ->
          ignore (Pool.map ~pool (fun k -> Recov_journal.record j k) keys));
      Recov_journal.flush j;
      let reloaded = Recov_journal.load ~path () in
      List.iter
        (fun k ->
          Alcotest.(check bool) ("recorded " ^ k) true
            (Recov_journal.mem reloaded k))
        keys;
      Alcotest.(check int) "no duplicates" 32
        (List.length (Recov_journal.cells reloaded)))

let test_journal_kill_mid_sweep () =
  (* A process dying between batched persists loses at most
     [flush_every - 1] cells — never a torn file, never spurious
     cells.  Recording 10 cells with flush_every:4 persists at 4 and
     8; the 2 unflushed cells are the recomputed-on-resume remainder. *)
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let j = Recov_journal.load ~flush_every:4 ~path () in
      let key i = Printf.sprintf "cell:%d" i in
      for i = 0 to 9 do
        Recov_journal.record j (key i)
      done;
      (* No flush: simulates the kill. *)
      let survivor = Recov_journal.load ~path () in
      Alcotest.(check int) "persisted batches" 8
        (List.length (Recov_journal.cells survivor));
      for i = 0 to 7 do
        Alcotest.(check bool) ("kept " ^ key i) true
          (Recov_journal.mem survivor (key i))
      done;
      for i = 8 to 9 do
        Alcotest.(check bool) ("lost " ^ key i) false
          (Recov_journal.mem survivor (key i))
      done)

(* --- Atomic writes under concurrency -------------------------------- *)

let test_write_atomic_concurrent_same_path () =
  (* Unique temp names mean concurrent writers to one path cannot
     clobber each other's temp file: the survivor is one writer's
     complete payload, never an interleaving, and no temp litter
     remains. *)
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "out.txt" in
      let payload i = String.concat "\n" (List.init 512 (fun j ->
          Printf.sprintf "writer-%d line %d" i j)) in
      Pool.with_pool ~jobs:4 (fun pool ->
          ignore
            (Pool.map ~pool
               (fun i ->
                 Fileio.write_atomic ~path (fun oc ->
                     output_string oc (payload i)))
               (List.init 8 Fun.id)));
      let final = read_file path in
      Alcotest.(check bool) "complete payload" true
        (List.exists (fun i -> final = payload i) (List.init 8 Fun.id));
      let litter =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> f <> "out.txt")
      in
      Alcotest.(check (list string)) "no temp litter" [] litter)

(* --- Csv ragged-row error path -------------------------------------- *)

let test_csv_ragged_message () =
  let path = Filename.temp_file "ksurf-par" ".csv" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      match
        Csv.write ~path ~header:[ "x"; "y" ]
          ~rows:[ [ "1"; "2" ]; [ "3" ] ]
      with
      | () -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument msg ->
          Alcotest.(check bool) "names row" true
            (Test_util.contains ~sub:"ragged row 1" msg);
          Alcotest.(check bool) "names widths" true
            (Test_util.contains ~sub:"header has 2" msg))

let suite =
  [
    Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
    Alcotest.test_case "map empty/single" `Quick test_map_empty_and_single;
    Alcotest.test_case "jobs 1 sequential" `Quick test_jobs_one_is_sequential;
    Alcotest.test_case "earliest exception" `Quick test_earliest_exception_wins;
    Alcotest.test_case "nested map" `Quick test_nested_map_no_deadlock;
    Alcotest.test_case "default jobs env" `Quick test_default_jobs_env;
    Alcotest.test_case "shutdown" `Quick test_shutdown;
    Alcotest.test_case "skewed runtimes jobs 1 = jobs 8" `Quick
      test_skewed_runtime_identity;
    Alcotest.test_case "many small batches" `Quick test_many_small_batches;
    Alcotest.test_case "map racing shutdown" `Quick test_map_racing_shutdown;
    Alcotest.test_case "workers size their minor heaps" `Quick
      test_workers_size_minor_heap;
    Alcotest.test_case "tune respects CAMLRUNPARAM" `Quick
      test_tune_respects_camlrunparam;
    Alcotest.test_case "studies pool-agnostic" `Slow
      test_studies_pool_agnostic;
    Alcotest.test_case "journal single writer" `Quick
      test_journal_parallel_single_writer;
    Alcotest.test_case "journal kill mid-sweep" `Quick
      test_journal_kill_mid_sweep;
    Alcotest.test_case "write_atomic concurrent" `Quick
      test_write_atomic_concurrent_same_path;
    Alcotest.test_case "csv ragged message" `Quick test_csv_ragged_message;
  ]
