open Ksurf

let quick cfg =
  {
    cfg with
    Fleet.tenants = 16;
    day_ns = 4e8;
    days = 1.0;
    mean_rate_per_s = 40.0;
    epoch_ns = 5e7;
    host_cores = 16;
  }

let run_quick ?(churn = 8.0) ?(seed = 42) () =
  Fleet.run (quick { Fleet.default_config with churn_per_day = churn; seed })

let test_fleet_serves () =
  let r = run_quick () in
  Alcotest.(check bool) "requests served" true (r.Fleet.completed > 0);
  Alcotest.(check bool) "latencies positive" true (r.Fleet.p50 > 0.0);
  Alcotest.(check bool) "p50 <= p99" true (r.Fleet.p50 <= r.Fleet.p99 +. 1e-9)

let test_churn_storms_visible () =
  let r = run_quick ~churn:16.0 () in
  Alcotest.(check bool) "departures happened" true (r.Fleet.departures > 0);
  Alcotest.(check bool) "creates = initial + churn arrivals" true
    (r.Fleet.cgroup_creates = r.Fleet.arrivals);
  Alcotest.(check bool) "every departure destroyed its cgroup" true
    (r.Fleet.cgroup_destroys = r.Fleet.departures);
  Alcotest.(check bool) "peak cgroups >= initial population" true
    (r.Fleet.peak_cgroups >= 16);
  (* Lifecycle events are depart/admit pairs (and a losing fiber whose
     victim was already torn down skips its paired admit), so the live
     population never drifts away from the steady state. *)
  Alcotest.(check int) "population steady under churn" 16
    (r.Fleet.arrivals - r.Fleet.departures)

let test_zero_churn_is_quiet () =
  let r = run_quick ~churn:0.0 () in
  Alcotest.(check int) "no departures" 0 r.Fleet.departures;
  Alcotest.(check int) "arrivals = population" 16 r.Fleet.arrivals

let test_slo_accounting_sane () =
  let r = run_quick () in
  Alcotest.(check bool) "measured <= arrivals" true
    (r.Fleet.measured <= r.Fleet.arrivals);
  Alcotest.(check bool) "slo_met <= measured" true
    (r.Fleet.slo_met <= r.Fleet.measured);
  Alcotest.(check bool) "attainment in [0,1]" true
    (r.Fleet.attainment >= 0.0 && r.Fleet.attainment <= 1.0);
  Alcotest.(check int) "replicas match autoscaler targets" 0
    r.Fleet.replica_imbalance

(* Regression for the retire-by-id bug: after a scale-down, replicas
   spawned by a later scale-up used to retire on their first request
   (replica id >= target), so scale-out after scale-in never added
   capacity.  Diurnal swings at this rate/SLO drive tenants down at the
   trough and back up at the next peak; retirement by count must leave
   every live tenant with exactly target_replicas fibers serving. *)
let test_scale_down_then_up_serves () =
  let cfg =
    {
      (quick { Fleet.default_config with churn_per_day = 0.0; slo_ns = 5e4 }) with
      Fleet.days = 3.0;
      mean_rate_per_s = 160.0;
    }
  in
  let r = Fleet.run cfg in
  Alcotest.(check bool) "autoscaler scaled down" true (r.Fleet.scale_downs > 0);
  Alcotest.(check bool) "autoscaler scaled up" true (r.Fleet.scale_ups > 0);
  Alcotest.(check int) "re-added replicas actually serve" 0
    r.Fleet.replica_imbalance

let test_deterministic () =
  let a = run_quick () and b = run_quick () in
  Alcotest.(check bool) "bit-identical results" true (a = b)

let test_seed_sensitivity () =
  let a = run_quick () and b = run_quick ~seed:43 () in
  Alcotest.(check bool) "different seeds diverge" true (a <> b)

let test_request_target_stops_early () =
  let cfg =
    quick
      {
        Fleet.default_config with
        churn_per_day = 4.0;
        request_target = Some 100;
        days = 50.0;
      }
  in
  let r = Fleet.run cfg in
  Alcotest.(check bool) "stopped near the target" true
    (r.Fleet.completed >= 100 && r.Fleet.completed < 1000)

(* Every latency accumulator streams, so a fleet's live heap does not
   grow with the requests it serves.  The same churning 64-tenant
   Docker fleet runs to 2,000 and to 20,000 requests; a probe collects
   and measures the major heap every 20,000 engine events.  Its peak
   above the pre-run heap may not grow by half: a fleet that kept each
   latency in a list more than doubles it. *)
let peak_live_words ~request_target =
  let cfg =
    {
      Fleet.default_config with
      Fleet.tenants = 64;
      churn_per_day = 8.0;
      policy = Tenant_policy.Static Tenant_policy.Docker;
      seed = 42;
      (* Far beyond the target: the run always stops on the target, and
         the short warmup keeps the staggered boot storm short. *)
      days = 4000.0;
      warmup_fraction = 0.001;
      request_target = Some request_target;
    }
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let baseline = live () in
  let peak = ref 0 and events = ref 0 in
  let probe _ =
    incr events;
    if !events mod 20_000 = 0 then peak := max !peak (live () - baseline)
  in
  let r = Fleet.run ~on_engine:(fun e -> Engine.add_probe e probe) cfg in
  Alcotest.(check bool) "reached the target" true (r.Fleet.completed >= request_target);
  !peak

let test_fleet_memory_flat () =
  let small = peak_live_words ~request_target:2_000 in
  let large = peak_live_words ~request_target:20_000 in
  if float_of_int large > 1.5 *. float_of_int small then
    Alcotest.failf "peak live words grew from %d at 2,000 requests to %d at 20,000"
      small large

let test_workload_rate_positive () =
  let rng = Prng.create 7 in
  let day = 2e9 in
  let profile = Workload.make ~rng ~day_ns:day ~horizon_ns:day ~mean_rate_per_s:25.0 in
  for i = 0 to 100 do
    let t = float_of_int i *. day /. 100.0 in
    if Workload.rate_at profile ~day_ns:day t <= 0.0 then
      Alcotest.fail "non-positive arrival rate"
  done

let suite =
  [
    Alcotest.test_case "fleet serves" `Quick test_fleet_serves;
    Alcotest.test_case "churn storms visible" `Quick test_churn_storms_visible;
    Alcotest.test_case "zero churn quiet" `Quick test_zero_churn_is_quiet;
    Alcotest.test_case "slo accounting sane" `Quick test_slo_accounting_sane;
    Alcotest.test_case "scale down then up serves" `Quick
      test_scale_down_then_up_serves;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "request target" `Quick test_request_target_stops_early;
    Alcotest.test_case "fleet memory flat" `Quick test_fleet_memory_flat;
    Alcotest.test_case "workload rate positive" `Quick test_workload_rate_positive;
  ]
