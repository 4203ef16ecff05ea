open Ksurf

let direct_mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let direct_variance l =
  let n = List.length l in
  if n < 2 then 0.0
  else begin
    let m = direct_mean l in
    List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 l
    /. float_of_int (n - 1)
  end

let fill l =
  let w = Welford.create () in
  List.iter (Welford.add w) l;
  w

let test_empty () =
  let w = Welford.create () in
  Alcotest.(check int) "count" 0 (Welford.count w);
  Alcotest.(check (float 0.0)) "mean" 0.0 (Welford.mean w);
  Alcotest.(check (float 0.0)) "variance" 0.0 (Welford.variance w)

let test_single () =
  let w = fill [ 42.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 42.0 (Welford.mean w);
  Alcotest.(check (float 0.0)) "variance" 0.0 (Welford.variance w);
  Alcotest.(check (float 1e-9)) "min" 42.0 (Welford.min_value w);
  Alcotest.(check (float 1e-9)) "max" 42.0 (Welford.max_value w)

let test_known_values () =
  let l = [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  let w = fill l in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Welford.mean w);
  Alcotest.(check (float 1e-9)) "variance" (32.0 /. 7.0) (Welford.variance w);
  Alcotest.(check (float 1e-9)) "total" 40.0 (Welford.total w)

let qcheck_matches_direct =
  QCheck.Test.make ~name:"welford matches direct computation" ~count:300
    QCheck.(list_of_size Gen.(int_range 2 50) (float_bound_exclusive 1000.0))
    (fun l ->
      QCheck.assume (List.length l >= 2);
      let w = fill l in
      Float.abs (Welford.mean w -. direct_mean l) < 1e-6
      && Float.abs (Welford.variance w -. direct_variance l) < 1e-4)

let qcheck_merge_equivalent =
  QCheck.Test.make ~name:"merge == sequential" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 30) (float_bound_exclusive 100.0))
        (list_of_size Gen.(int_range 1 30) (float_bound_exclusive 100.0)))
    (fun (l1, l2) ->
      let merged = Welford.merge (fill l1) (fill l2) in
      let seq = fill (l1 @ l2) in
      Welford.count merged = Welford.count seq
      && Float.abs (Welford.mean merged -. Welford.mean seq) < 1e-6
      && Float.abs (Welford.variance merged -. Welford.variance seq) < 1e-4
      && Welford.min_value merged = Welford.min_value seq
      && Welford.max_value merged = Welford.max_value seq)

let test_merge_with_empty () =
  let w = fill [ 1.0; 2.0; 3.0 ] in
  let e = Welford.create () in
  let m1 = Welford.merge w e and m2 = Welford.merge e w in
  Alcotest.(check int) "left count" 3 (Welford.count m1);
  Alcotest.(check int) "right count" 3 (Welford.count m2);
  Alcotest.(check (float 1e-9)) "left mean" 2.0 (Welford.mean m1);
  Alcotest.(check (float 1e-9)) "right mean" 2.0 (Welford.mean m2)

(* Golden values, compared bit for bit: recorded from the mixed-record
   implementation (integer count) that the all-float one replaced. *)
let check_bits name expected actual =
  Alcotest.(check int64) name expected (Int64.bits_of_float actual)

let golden_a = [ 3.25; 1e-3; 17.5; 2.0; 1e6; 0.1; 42.0; 7.75; 0.3 ]
let golden_b = [ 5.5; 0.2; 9e3; 1.25 ]

let test_golden_bits () =
  let a = fill golden_a in
  check_bits "mean" 0x40fb20f3612a8d8aL (Welford.mean a);
  check_bits "variance" 0x4239de9e1c45a456L (Welford.variance a);
  check_bits "total" 0x412e8511cd4fdf3cL (Welford.total a)

let test_golden_merge_bits () =
  let m = Welford.merge (fill golden_a) (fill golden_b) in
  Alcotest.(check int) "count" 13 (Welford.count m);
  check_bits "mean" 0x40f2f3586e978d50L (Welford.mean m);
  check_bits "variance" 0x4231e267b0a11b33L (Welford.variance m);
  check_bits "min" 0x3f50624dd2f1a9fcL (Welford.min_value m);
  check_bits "max" 0x412e848000000000L (Welford.max_value m);
  check_bits "total" 0x412ecb6fb3b645a2L (Welford.total m)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "single" `Quick test_single;
    Alcotest.test_case "known values" `Quick test_known_values;
    Alcotest.test_case "merge with empty" `Quick test_merge_with_empty;
    Alcotest.test_case "golden bits" `Quick test_golden_bits;
    Alcotest.test_case "golden merge bits" `Quick test_golden_merge_bits;
    QCheck_alcotest.to_alcotest qcheck_matches_direct;
    QCheck_alcotest.to_alcotest qcheck_merge_equivalent;
  ]
