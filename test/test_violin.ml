open Ksurf

let sample_violin () =
  Violin.of_samples ~label:"t"
    (Array.init 100 (fun i -> float_of_int (i + 1) *. 10.0))

let test_quartile_ordering () =
  let v = sample_violin () in
  Alcotest.(check bool) "min <= lo95" true (v.Violin.min <= v.Violin.lo95);
  Alcotest.(check bool) "lo95 <= q1" true (v.Violin.lo95 <= v.Violin.q1);
  Alcotest.(check bool) "q1 <= med" true (v.Violin.q1 <= v.Violin.median);
  Alcotest.(check bool) "med <= q3" true (v.Violin.median <= v.Violin.q3);
  Alcotest.(check bool) "q3 <= hi95" true (v.Violin.q3 <= v.Violin.hi95);
  Alcotest.(check bool) "hi95 <= max" true (v.Violin.hi95 <= v.Violin.max)

let test_counts () =
  let v = sample_violin () in
  Alcotest.(check int) "count" 100 v.Violin.count;
  Alcotest.(check bool) "density non-empty" true
    (Array.length v.Violin.density > 0)

let test_degenerate () =
  let v = Violin.of_samples ~label:"const" (Array.make 5 3.0) in
  Alcotest.(check (float 1e-9)) "median" 3.0 v.Violin.median;
  Alcotest.(check (float 1e-9)) "min=max" v.Violin.min v.Violin.max

let test_empty_raises () =
  Alcotest.check_raises "empty" (Invalid_argument "Violin.of_samples: empty")
    (fun () -> ignore (Violin.of_samples ~label:"x" [||]))

let test_render_ascii () =
  let v1 = sample_violin () in
  let v2 =
    Violin.of_samples ~label:"wide"
      (Array.init 50 (fun i -> Float.pow 10.0 (1.0 +. (float_of_int i /. 12.0))))
  in
  let text = Violin.render_ascii [ v1; v2 ] in
  Alcotest.(check bool) "non-empty" true (String.length text > 0);
  Alcotest.(check bool) "contains median marker" true
    (String.contains text 'O');
  Alcotest.(check bool) "contains labels" true
    (String.length text > 0
    &&
    let lines = String.split_on_char '\n' text in
    List.exists (fun l -> String.length l > 0 && String.trim l <> "") lines)

let test_render_empty_list () =
  Alcotest.(check string) "empty input" "" (Violin.render_ascii [])

let qcheck_violin_ordering =
  QCheck.Test.make ~name:"violin quantiles ordered" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 60) (float_bound_exclusive 1e5))
    (fun l ->
      let v = Violin.of_samples ~label:"q" (Array.of_list l) in
      v.Violin.min <= v.Violin.q1 +. 1e-9
      && v.Violin.q1 <= v.Violin.median +. 1e-9
      && v.Violin.median <= v.Violin.q3 +. 1e-9
      && v.Violin.q3 <= v.Violin.max +. 1e-9)

let suite =
  [
    Alcotest.test_case "quartile ordering" `Quick test_quartile_ordering;
    Alcotest.test_case "counts" `Quick test_counts;
    Alcotest.test_case "degenerate" `Quick test_degenerate;
    Alcotest.test_case "empty raises" `Quick test_empty_raises;
    Alcotest.test_case "render ascii" `Quick test_render_ascii;
    Alcotest.test_case "render empty list" `Quick test_render_empty_list;
    QCheck_alcotest.to_alcotest qcheck_violin_ordering;
  ]
