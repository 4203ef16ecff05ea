(* Tenancy sweep determinism (satellite of ktenant): the exported CSV
   must be byte-identical whatever the worker count. *)

module E = Ksurf.Experiments
module Policy = Ksurf.Tenant_policy

let policies = [ Policy.Static Policy.Native; Policy.Static Policy.Docker ]
let tenants = [ 8 ]
let churns = [ 0.0; 16.0 ]

let run () = E.Tenancy.run ~tenants ~churns ~policies (E.context ~seed:7 E.Quick)

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

(* The tenancy entry over this grid, exported through the one writer. *)
let export_bytes jobs =
  let study = E.Tenancy.study ~tenants ~churns ~policies () in
  let o =
    Ksurf.Pool.with_pool ~jobs (fun pool ->
        study.E.run (E.context ~seed:7 ~pool E.Quick))
  in
  match o.E.csvs with
  | [ c ] -> with_tmp_dir "ksurf-tenancy" (fun dir -> read_file (E.write_csv ~dir c))
  | cs -> Alcotest.failf "expected one exported file, got %d" (List.length cs)

(* The tentpole acceptance bar: --jobs 1 and --jobs 4 must yield a
   byte-identical tenancy.csv.  Determinism lives in the merge, not
   the schedule (see Pool.map). *)
let test_jobs_invariant () =
  Alcotest.(check string) "csv bytes identical across --jobs" (export_bytes 1)
    (export_bytes 4)

let test_frontier_sane () =
  let t = run () in
  let frontier = E.Tenancy.frontier t in
  Alcotest.(check int) "one frontier row per policy" (List.length policies)
    (List.length frontier);
  List.iter
    (fun (p, best) ->
      let qualifies (c : E.Tenancy.cell) =
        c.Ksurf.Fleet.policy = p && c.Ksurf.Fleet.measured > 0
        && c.Ksurf.Fleet.attainment >= 0.95
      in
      match best with
      | Some (c : E.Tenancy.cell) ->
          Alcotest.(check bool) "frontier cell carries a passing verdict" true
            (qualifies c);
          Alcotest.(check bool) "attainment within [0,1]" true
            (c.Ksurf.Fleet.attainment <= 1.0)
      | None ->
          (* A policy yields no frontier cell only when none of its
             cells is measured and attains the floor. *)
          Alcotest.(check bool) "no qualifying cell" false
            (List.exists qualifies t.E.Tenancy.cells))
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
  (match E.Tenancy.frontier t with
  | [ (_, Some c) ] ->
      Alcotest.(check int) "measured cell wins over larger no-data cell" 8
        c.Ksurf.Fleet.tenants
  | _ -> Alcotest.fail "expected one frontier row with a cell");
  match E.Tenancy.frontier (
    { t with E.Tenancy.cells = [ cell ~tenants:512 ~measured:0 ~slo_met:0 ] })
  with
  | [ (_, None) ] -> ()
  | _ -> Alcotest.fail "no-data-only policy must have an empty frontier"

let suite =
  [
    Alcotest.test_case "jobs invariant csv" `Quick test_jobs_invariant;
    Alcotest.test_case "frontier sane" `Quick test_frontier_sane;
    Alcotest.test_case "frontier excludes no-data" `Quick
      test_frontier_excludes_no_data;
  ]
