open Ksurf

let test_bandwidth_positive () =
  let samples = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check bool) "positive" true (Kde.silverman_bandwidth samples > 0.0)

let test_bandwidth_degenerate () =
  (* Constant samples: bandwidth must still be positive. *)
  let samples = Array.make 10 7.0 in
  Alcotest.(check bool) "degenerate positive" true
    (Kde.silverman_bandwidth samples > 0.0)

let test_density_peak_at_data () =
  let samples = [| 10.0; 10.1; 9.9; 10.05 |] in
  let at_data = Kde.estimate samples 10.0 in
  let far = Kde.estimate samples 100.0 in
  Alcotest.(check bool) "density higher near data" true (at_data > far)

let test_density_integrates_to_one () =
  let rng = Prng.create 3 in
  let samples = Array.init 200 (fun _ -> Prng.float rng 50.0) in
  let h = Kde.silverman_bandwidth samples in
  (* Trapezoid rule over a wide support. *)
  let lo = -.(4.0 *. h) and hi = 50.0 +. (4.0 *. h) in
  let steps = 400 in
  let dx = (hi -. lo) /. float_of_int steps in
  let integral = ref 0.0 in
  for i = 0 to steps - 1 do
    let x = lo +. (float_of_int i +. 0.5) *. dx in
    integral := !integral +. (Kde.estimate samples x *. dx)
  done;
  if Float.abs (!integral -. 1.0) > 0.02 then
    Alcotest.failf "density integrates to %f" !integral

let test_curve_shape () =
  let samples = [| 1.0; 2.0; 3.0 |] in
  let curve = Kde.curve ~points:16 samples in
  Alcotest.(check int) "point count" 16 (Array.length curve);
  Array.iter (fun (_, d) -> if d < 0.0 then Alcotest.fail "negative density") curve;
  let xs = Array.map fst curve in
  for i = 1 to Array.length xs - 1 do
    if xs.(i) <= xs.(i - 1) then Alcotest.fail "x not increasing"
  done

let test_log_curve_positive_support () =
  let samples = [| 10.0; 100.0; 1000.0; -5.0; 0.0 |] in
  let curve = Kde.log_curve ~points:16 samples in
  Array.iter
    (fun (x, _) -> if x <= 0.0 then Alcotest.fail "non-positive support point")
    curve

let test_empty_raises () =
  Alcotest.check_raises "empty" (Invalid_argument "Kde.curve: empty") (fun () ->
      ignore (Kde.curve [||]))

let qcheck_density_non_negative =
  QCheck.Test.make ~name:"kde density non-negative" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 30) (float_bound_exclusive 100.0))
        (float_bound_exclusive 200.0))
    (fun (l, x) -> Kde.estimate (Array.of_list l) x >= 0.0)

let suite =
  [
    Alcotest.test_case "bandwidth positive" `Quick test_bandwidth_positive;
    Alcotest.test_case "degenerate bandwidth" `Quick test_bandwidth_degenerate;
    Alcotest.test_case "peak near data" `Quick test_density_peak_at_data;
    Alcotest.test_case "integrates to 1" `Slow test_density_integrates_to_one;
    Alcotest.test_case "curve shape" `Quick test_curve_shape;
    Alcotest.test_case "log curve support" `Quick test_log_curve_positive_support;
    Alcotest.test_case "empty raises" `Quick test_empty_raises;
    QCheck_alcotest.to_alcotest qcheck_density_non_negative;
  ]
