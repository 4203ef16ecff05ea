open Ksurf

let empirical_mean dist seed n =
  let rng = Prng.create seed in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Dist.sample dist rng
  done;
  !acc /. float_of_int n

let check_mean_close name dist tolerance =
  let analytic = Dist.mean_estimate dist in
  let measured = empirical_mean dist 42 50_000 in
  let rel = Float.abs (measured -. analytic) /. Float.max analytic 1e-9 in
  if rel > tolerance then
    Alcotest.failf "%s: empirical mean %g vs analytic %g (rel %.3f)" name
      measured analytic rel

let test_constant () =
  let d = Dist.constant 5.0 in
  let rng = Prng.create 1 in
  for _ = 1 to 10 do
    Alcotest.(check (float 0.0)) "constant" 5.0 (Dist.sample d rng)
  done

let test_mean_exponential () =
  check_mean_close "exponential" (Dist.exponential ~mean:123.0) 0.02

let test_mean_uniform () =
  check_mean_close "uniform" (Dist.uniform ~lo:10.0 ~hi:30.0) 0.02

let test_mean_lognormal () =
  check_mean_close "lognormal" (Dist.lognormal ~median:100.0 ~sigma:0.5) 0.05

let test_mean_shifted_scaled () =
  let d = Dist.shifted 5.0 (Dist.scaled 2.0 (Dist.constant 10.0)) in
  Alcotest.(check (float 1e-9)) "shifted+scaled" 25.0 (Dist.mean_estimate d);
  let rng = Prng.create 1 in
  Alcotest.(check (float 1e-9)) "sample" 25.0 (Dist.sample d rng)

let test_lognormal_median () =
  let d = Dist.lognormal ~median:200.0 ~sigma:0.7 in
  let rng = Prng.create 5 in
  let samples = Array.init 40_000 (fun _ -> Dist.sample d rng) in
  let median = Quantile.median samples in
  if Float.abs (median -. 200.0) /. 200.0 > 0.03 then
    Alcotest.failf "lognormal median %g too far from 200" median

let test_invalid_args () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "neg constant" true (raises (fun () -> ignore (Dist.constant (-1.0))));
  Alcotest.(check bool) "bad exp" true (raises (fun () -> ignore (Dist.exponential ~mean:0.0)));
  Alcotest.(check bool) "bad bounds" true
    (raises (fun () -> ignore (Dist.bounded_pareto ~lo:10.0 ~hi:5.0 ~shape:1.0)));
  Alcotest.(check bool) "neg shift" true
    (raises (fun () -> ignore (Dist.shifted (-1.0) (Dist.constant 1.0))))

let qcheck_samples_non_negative =
  QCheck.Test.make ~name:"all samplers non-negative" ~count:300
    QCheck.(pair small_int (int_bound 4))
    (fun (seed, which) ->
      let dist =
        match which with
        | 0 -> Dist.exponential ~mean:10.0
        | 1 -> Dist.lognormal ~median:5.0 ~sigma:1.5
        | 2 -> Dist.bounded_pareto ~lo:1.0 ~hi:100.0 ~shape:1.2
        | 3 -> Dist.uniform ~lo:0.0 ~hi:3.0
        | _ -> Dist.shifted 1.0 (Dist.exponential ~mean:2.0)
      in
      let rng = Prng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        if Dist.sample dist rng < 0.0 then ok := false
      done;
      !ok)

let qcheck_bounded_pareto_in_bounds =
  QCheck.Test.make ~name:"bounded pareto respects bounds" ~count:300
    QCheck.small_int
    (fun seed ->
      let d = Dist.bounded_pareto ~lo:10.0 ~hi:500.0 ~shape:0.9 in
      let rng = Prng.create seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Dist.sample d rng in
        if v < 10.0 *. 0.999 || v > 500.0 *. 1.001 then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "constant" `Quick test_constant;
    Alcotest.test_case "exponential mean" `Slow test_mean_exponential;
    Alcotest.test_case "uniform mean" `Slow test_mean_uniform;
    Alcotest.test_case "lognormal mean" `Slow test_mean_lognormal;
    Alcotest.test_case "shifted/scaled" `Quick test_mean_shifted_scaled;
    Alcotest.test_case "lognormal median" `Slow test_lognormal_median;
    Alcotest.test_case "invalid args" `Quick test_invalid_args;
    QCheck_alcotest.to_alcotest qcheck_samples_non_negative;
    QCheck_alcotest.to_alcotest qcheck_bounded_pareto_in_bounds;
  ]
