open Ksurf

let test_median_odd () =
  Alcotest.(check (float 1e-9)) "odd" 3.0 (Quantile.median [| 5.0; 1.0; 3.0 |])

let test_median_even () =
  Alcotest.(check (float 1e-9)) "even" 2.5 (Quantile.median [| 4.0; 1.0; 2.0; 3.0 |])

let test_single_element () =
  Alcotest.(check (float 1e-9)) "p99 of singleton" 7.0 (Quantile.p99 [| 7.0 |]);
  Alcotest.(check (float 1e-9)) "median of singleton" 7.0 (Quantile.median [| 7.0 |])

let test_type7_interpolation () =
  (* quantile([10,20,30,40], 0.5) with type-7: h = 1.5 -> 25. *)
  Alcotest.(check (float 1e-9)) "interpolated" 25.0
    (Quantile.quantile [| 10.0; 20.0; 30.0; 40.0 |] 0.5)

let test_extremes () =
  let data = [| 3.0; 1.0; 4.0; 1.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "q0 = min" 1.0 (Quantile.quantile data 0.0);
  Alcotest.(check (float 1e-9)) "q1 = max" 5.0 (Quantile.quantile data 1.0);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Quantile.max_value data);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Quantile.min_value data)

let test_empty_raises () =
  Alcotest.check_raises "empty" (Invalid_argument "Quantile.of_sorted: empty")
    (fun () -> ignore (Quantile.median [||]))

let test_summarize () =
  let s = Quantile.summarize [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check int) "count" 5 s.Quantile.count;
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Quantile.mean;
  Alcotest.(check (float 1e-9)) "median" 3.0 s.Quantile.median;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Quantile.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.Quantile.max

let test_sorted_copy_does_not_mutate () =
  let data = [| 3.0; 1.0; 2.0 |] in
  let _ = Quantile.sorted_copy data in
  Alcotest.(check (float 1e-9)) "original intact" 3.0 data.(0)

let qcheck_quantile_bounded =
  QCheck.Test.make ~name:"quantile within [min,max]" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1e6))
        (float_bound_inclusive 1.0))
    (fun (l, q) ->
      let a = Array.of_list l in
      let v = Quantile.quantile a q in
      v >= Quantile.min_value a -. 1e-9 && v <= Quantile.max_value a +. 1e-9)

let qcheck_quantile_monotone =
  QCheck.Test.make ~name:"quantile monotone in q" ~count:300
    QCheck.(list_of_size Gen.(int_range 2 50) (float_bound_exclusive 1e6))
    (fun l ->
      let a = Array.of_list l in
      let sorted = Quantile.sorted_copy a in
      let prev = ref neg_infinity in
      let ok = ref true in
      List.iter
        (fun q ->
          let v = Quantile.of_sorted sorted q in
          if v < !prev -. 1e-9 then ok := false;
          prev := v)
        [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1.0 ];
      !ok)

let qcheck_median_le_p99 =
  QCheck.Test.make ~name:"median <= p99 <= max" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 80) (float_bound_exclusive 1e6))
    (fun l ->
      let a = Array.of_list l in
      let s = Quantile.summarize a in
      s.Quantile.median <= s.Quantile.p99 +. 1e-9
      && s.Quantile.p99 <= s.Quantile.max +. 1e-9)

let suite =
  [
    Alcotest.test_case "median odd" `Quick test_median_odd;
    Alcotest.test_case "median even" `Quick test_median_even;
    Alcotest.test_case "singleton" `Quick test_single_element;
    Alcotest.test_case "type-7 interpolation" `Quick test_type7_interpolation;
    Alcotest.test_case "extremes" `Quick test_extremes;
    Alcotest.test_case "empty raises" `Quick test_empty_raises;
    Alcotest.test_case "summarize" `Quick test_summarize;
    Alcotest.test_case "no mutation" `Quick test_sorted_copy_does_not_mutate;
    QCheck_alcotest.to_alcotest qcheck_quantile_bounded;
    QCheck_alcotest.to_alcotest qcheck_quantile_monotone;
    QCheck_alcotest.to_alcotest qcheck_median_le_p99;
  ]
