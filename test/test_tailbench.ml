open Ksurf

let test_eight_apps () =
  Alcotest.(check int) "suite size" 8 (List.length Apps.all);
  Alcotest.(check (list string)) "names"
    [ "xapian"; "masstree"; "moses"; "sphinx"; "img-dnn"; "specjbb"; "silo"; "shore" ]
    Apps.names

(* Compiling resolves every call an app's mix and I/O list name
   against the table, and rejects an unknown one. *)
let test_all_apps_validate () =
  List.iter
    (fun app ->
      match Service.compile app with
      | _ -> ()
      | exception Invalid_argument e -> Alcotest.fail e)
    Apps.all;
  let bogus = { (List.hd Apps.all) with Apps.io_calls = [ ("frobnicate", 64) ] } in
  Alcotest.check_raises "unknown io call"
    (Invalid_argument "Service.compile: unknown syscall frobnicate") (fun () ->
      ignore (Service.compile bogus))

let test_by_name () =
  Alcotest.(check bool) "found" true (Apps.by_name "silo" <> None);
  Alcotest.(check bool) "missing" true (Apps.by_name "redis" = None)

let test_service_estimates_positive () =
  List.iter
    (fun app ->
      let est = Apps.mean_service_estimate app in
      if est <= 0.0 then Alcotest.failf "%s: estimate %f" app.Apps.name est)
    Apps.all

let test_relative_magnitudes () =
  (* sphinx and moses are the long requests; silo and masstree short. *)
  let est name = Apps.mean_service_estimate (Option.get (Apps.by_name name)) in
  Alcotest.(check bool) "sphinx longest" true
    (est "sphinx" > est "moses" && est "moses" > est "xapian");
  Alcotest.(check bool) "silo shortest" true
    (est "silo" < est "masstree" && est "silo" < est "img-dnn")

let test_shore_is_io_bound () =
  let shore = Option.get (Apps.by_name "shore") in
  Alcotest.(check bool) "has io calls" true (shore.Apps.io_calls <> []);
  List.iter
    (fun app ->
      if app.Apps.name <> "shore" then
        Alcotest.(check bool) (app.Apps.name ^ " no io") true
          (app.Apps.io_calls = []))
    Apps.all

let test_silo_tlb_sensitive () =
  let penalty name = (Option.get (Apps.by_name name)).Apps.virt_cpu_penalty in
  List.iter
    (fun name ->
      if name <> "silo" then
        Alcotest.(check bool) ("silo > " ^ name) true (penalty "silo" >= penalty name))
    Apps.names

let test_compile_and_handle () =
  let app = Option.get (Apps.by_name "masstree") in
  let compiled = Service.compile app in
  Alcotest.(check string) "app accessible" "masstree" (Service.app compiled).Apps.name;
  let engine = Engine.create ~seed:2 () in
  let env =
    Env.deploy ~engine ~kernel_config:Kernel_config.quiet Env.Native
      (Partition.table1 1)
  in
  let rng = Prng.create 3 in
  let elapsed = ref nan in
  Engine.spawn engine (fun () ->
      let t0 = Engine.now engine in
      Service.handle compiled ~env ~rank:0 ~rng ();
      elapsed := Engine.now engine -. t0);
  Engine.run engine;
  Alcotest.(check bool) "request consumed at least its cpu" true
    (!elapsed > 100_000.0)

let test_hw_dilation_slows () =
  let app = Option.get (Apps.by_name "img-dnn") in
  let compiled = Service.compile app in
  let run dilation =
    let engine = Engine.create ~seed:5 () in
    let env =
      Env.deploy ~engine ~kernel_config:Kernel_config.quiet Env.Native
        (Partition.table1 1)
    in
    let rng = Prng.create 7 in
    let total = ref 0.0 in
    Engine.spawn engine (fun () ->
        for _ = 1 to 50 do
          let t0 = Engine.now engine in
          Service.handle compiled ~env ~rank:0 ~rng ~hw_dilation:dilation ();
          total := !total +. (Engine.now engine -. t0)
        done);
    Engine.run engine;
    !total
  in
  Alcotest.(check bool) "dilated slower" true (run 1.5 > run 1.0)

let test_runner_smoke () =
  let app = Option.get (Apps.by_name "silo") in
  let config =
    { Runner.default_config with Runner.requests = 150; seed = 13 }
  in
  let r = Runner.run_single_node ~app ~kind:Env.Docker ~contended:false ~config () in
  Alcotest.(check string) "app name" "silo" r.Runner.app_name;
  Alcotest.(check string) "kind" "docker" r.Runner.kind;
  Alcotest.(check bool) "latency stats ordered" true
    (r.Runner.mean <= r.Runner.p99 && r.Runner.p99 <= r.Runner.max);
  Alcotest.(check bool) "positive p99" true (r.Runner.p99 > 0.0);
  Alcotest.(check bool) "warmup discarded" true (r.Runner.count < 150)

let test_runner_deterministic () =
  let app = Option.get (Apps.by_name "silo") in
  let config = { Runner.default_config with Runner.requests = 100; seed = 21 } in
  let run () =
    (Runner.run_single_node ~app ~kind:Env.Docker ~contended:false ~config ()).Runner.p99
  in
  Alcotest.(check (float 1e-9)) "same seed same p99" (run ()) (run ())

let test_percent_increase () =
  let fake p99 =
    {
      Runner.app_name = "x"; kind = "k"; contended = false; count = 1;
      mean = p99; p95 = p99; p99; max = p99; wall_ns = 1.0;
      degraded = false; survivors = 1; crashes = 0; restarts = 0; timeouts = 0;
    }
  in
  Alcotest.(check (float 1e-9)) "doubling is +100%" 100.0
    (Runner.percent_increase ~isolated:(fake 10.0) ~contended:(fake 20.0))

let suite =
  [
    Alcotest.test_case "eight apps" `Quick test_eight_apps;
    Alcotest.test_case "apps validate" `Quick test_all_apps_validate;
    Alcotest.test_case "by_name" `Quick test_by_name;
    Alcotest.test_case "estimates positive" `Quick test_service_estimates_positive;
    Alcotest.test_case "relative magnitudes" `Quick test_relative_magnitudes;
    Alcotest.test_case "shore io-bound" `Quick test_shore_is_io_bound;
    Alcotest.test_case "silo tlb-sensitive" `Quick test_silo_tlb_sensitive;
    Alcotest.test_case "compile and handle" `Quick test_compile_and_handle;
    Alcotest.test_case "hw dilation" `Quick test_hw_dilation_slows;
    Alcotest.test_case "runner smoke" `Slow test_runner_smoke;
    Alcotest.test_case "runner deterministic" `Slow test_runner_deterministic;
    Alcotest.test_case "percent increase" `Quick test_percent_increase;
  ]
