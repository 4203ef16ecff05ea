(* Tenancy sweep determinism (satellite of ktenant): the exported CSV
   must be byte-identical whatever the worker count, and a sweep killed
   mid-run must resume through the journal to exactly the cells a
   clean run produces. *)

module E = Ksurf.Experiments
module Policy = Ksurf.Tenant_policy

let policies = [ Policy.Static Policy.Native; Policy.Static Policy.Docker ]
let tenants = [ 8 ]
let churns = [ 0.0; 16.0 ]

let run ?journal ?pool () =
  E.Tenancy.run ~tenants ~churns ~policies
    (E.context ~seed:7 ?journal ?pool E.Quick)

let with_tmp_dir prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let export_bytes t dir =
  match Ksurf.Experiments.Tenancy.csv ~dir t with
  | [ p ] -> read_file p
  | ps -> Alcotest.failf "expected one exported file, got %d" (List.length ps)

(* The tentpole acceptance bar: --jobs 1 and --jobs 4 must yield a
   byte-identical tenancy.csv.  Determinism lives in the merge, not
   the schedule (see Pool.map). *)
let test_jobs_invariant () =
  let seq = Ksurf.Pool.with_pool ~jobs:1 (fun pool -> run ~pool ()) in
  let par = Ksurf.Pool.with_pool ~jobs:4 (fun pool -> run ~pool ()) in
  let bytes_of t = with_tmp_dir "ksurf-tenancy" (fun dir -> export_bytes t dir) in
  Alcotest.(check string) "csv bytes identical across --jobs" (bytes_of seq)
    (bytes_of par)

(* Kill-mid-sweep equivalence: record only the first half of the cells
   in a journal (as if the process died after completing them), resume
   with the same journal, and check the union of the halves equals a
   clean uninterrupted run. *)
let test_journal_resume () =
  let full = run () in
  let keys =
    List.concat_map
      (fun policy ->
        List.concat_map
          (fun tenants ->
            List.map
              (fun churn -> E.Tenancy.cell_key (policy, tenants, churn))
              churns)
          tenants)
      policies
  in
  let half = List.filteri (fun i _ -> i < List.length keys / 2) keys in
  let jpath = Filename.temp_file "ksurf-tenancy" ".journal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove jpath)
    (fun () ->
      let journal = Ksurf.Recov_journal.load ~path:jpath () in
      List.iter (Ksurf.Recov_journal.record journal) half;
      Ksurf.Recov_journal.flush journal;
      let resumed = run ~journal () in
      Alcotest.(check int) "resume computes only the missing cells"
        (List.length keys - List.length half)
        (List.length resumed.E.Tenancy.cells);
      (* Every resumed cell matches the corresponding clean-run cell
         field for field (result is immutable scalars + strings, so
         structural equality is exact). *)
      List.iter
        (fun (c : E.Tenancy.cell) ->
          let key =
            E.Tenancy.cell_key
              ( (match Policy.of_string c.Ksurf.Fleet.policy with
                | Some p -> p
                | None -> Alcotest.failf "bad policy %s" c.Ksurf.Fleet.policy),
                c.Ksurf.Fleet.tenants,
                c.Ksurf.Fleet.churn_per_day )
          in
          ignore key;
          match
            E.Tenancy.cell full ~policy:c.Ksurf.Fleet.policy
              ~tenants:c.Ksurf.Fleet.tenants ~churn:c.Ksurf.Fleet.churn_per_day
          with
          | Some f -> Alcotest.(check bool) "cell equals clean run" true (f = c)
          | None -> Alcotest.fail "resumed cell missing from clean run")
        resumed.E.Tenancy.cells;
      (* A second resume with the now-complete journal is a no-op. *)
      List.iter
        (fun (c : E.Tenancy.cell)->
          Ksurf.Recov_journal.record journal
            (E.Tenancy.cell_key
               ( Option.get (Policy.of_string c.Ksurf.Fleet.policy),
                 c.Ksurf.Fleet.tenants,
                 c.Ksurf.Fleet.churn_per_day )))
        resumed.E.Tenancy.cells;
      Ksurf.Recov_journal.flush journal;
      let again = run ~journal:(Ksurf.Recov_journal.load ~path:jpath ()) () in
      Alcotest.(check int) "complete journal skips everything" 0
        (List.length again.E.Tenancy.cells))

let test_frontier_sane () =
  let t = run () in
  let frontier = E.Tenancy.frontier ~floor:0.0 t in
  Alcotest.(check int) "one frontier row per policy" (List.length policies)
    (List.length frontier);
  List.iter
    (fun (p, best) ->
      let has_data =
        List.exists
          (fun (c : E.Tenancy.cell) ->
            c.Ksurf.Fleet.policy = p && c.Ksurf.Fleet.measured > 0)
          t.E.Tenancy.cells
      in
      match best with
      | Some (c : E.Tenancy.cell) ->
          Alcotest.(check bool) "frontier cell carries a verdict" true
            (c.Ksurf.Fleet.measured > 0);
          Alcotest.(check bool) "attainment within [0,1]" true
            (c.Ksurf.Fleet.attainment >= 0.0 && c.Ksurf.Fleet.attainment <= 1.0)
      | None ->
          (* Even at floor 0 a policy whose cells are all no-data must
             yield no frontier cell; one with data must yield one. *)
          Alcotest.(check bool) "only no-data policies yield no cell" false
            has_data)
    frontier

(* A sparse cell (no tenant reached min_tenant_samples) reports
   attainment 0 but carries no verdict: the frontier must prefer a
   smaller measured cell over a larger measured=0 one, never reading
   the 0.0 as total SLO failure. *)
let test_frontier_excludes_no_data () =
  let cell ~tenants ~measured ~slo_met : E.Tenancy.cell =
    {
      Ksurf.Fleet.policy = "docker";
      tenants;
      churn_per_day = 0.0;
      completed = 100;
      mean = 1.0;
      p50 = 1.0;
      p95 = 1.0;
      p99 = 1.0;
      max = 1.0;
      slo_ns = 2.5e5;
      measured;
      slo_met;
      attainment =
        (if measured = 0 then 0.0
         else float_of_int slo_met /. float_of_int measured);
      epoch_violations = 0;
      arrivals = tenants;
      departures = 0;
      cgroup_creates = tenants;
      cgroup_destroys = 0;
      migrations = 0;
      scale_ups = 0;
      scale_downs = 0;
      replica_imbalance = 0;
      peak_cgroups = tenants;
      final_native = 0;
      final_docker = tenants;
      final_kvm = 0;
      final_mk = 0;
      virtual_ns = 1.0;
    }
  in
  let t =
    {
      E.Tenancy.slo_ns = 2.5e5;
      cells =
        [
          cell ~tenants:8 ~measured:8 ~slo_met:8;
          cell ~tenants:512 ~measured:0 ~slo_met:0;
        ];
    }
  in
  (match E.Tenancy.frontier ~floor:0.0 t with
  | [ (_, Some c) ] ->
      Alcotest.(check int) "measured cell wins over larger no-data cell" 8
        c.Ksurf.Fleet.tenants
  | _ -> Alcotest.fail "expected one frontier row with a cell");
  match E.Tenancy.frontier ~floor:0.95 (
    { t with E.Tenancy.cells = [ cell ~tenants:512 ~measured:0 ~slo_met:0 ] })
  with
  | [ (_, None) ] -> ()
  | _ -> Alcotest.fail "no-data-only policy must have an empty frontier"

let suite =
  [
    Alcotest.test_case "jobs invariant csv" `Quick test_jobs_invariant;
    Alcotest.test_case "journal resume" `Quick test_journal_resume;
    Alcotest.test_case "frontier sane" `Quick test_frontier_sane;
    Alcotest.test_case "frontier excludes no-data" `Quick
      test_frontier_excludes_no_data;
  ]
