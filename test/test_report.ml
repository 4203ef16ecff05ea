open Ksurf

let render f = Format.asprintf "%t" f

let test_duration () =
  Alcotest.(check string) "ns" "412ns" (Report.duration_ns 412.0);
  Alcotest.(check string) "us" "3.1us" (Report.duration_ns 3_100.0);
  Alcotest.(check string) "ms" "42.0ms" (Report.duration_ns 4.2e7);
  Alcotest.(check string) "s" "1.20s" (Report.duration_ns 1.2e9)

let test_table () =
  let out =
    render (Report.table ~header:[ "a"; "b" ] ~rows:[ [ "1"; "2" ]; [ "3"; "4" ] ])
  in
  Alcotest.(check bool) "header present" true
    (String.length out > 0 && String.sub out 0 1 = "a");
  Alcotest.(check bool) "has rule" true (String.contains out '-')

let test_table_ragged () =
  Alcotest.(check bool) "ragged rejected" true
    (try
       ignore (render (Report.table ~header:[ "a"; "b" ] ~rows:[ [ "1" ] ]));
       false
     with Invalid_argument _ -> true)

let test_bars () =
  let out =
    render
      (Report.grouped_bars ~title:"t" ~unit_label:"ms" ~series:[ "s" ]
         [ ("x", [ 10.0 ]); ("y", [ 5.0 ]) ])
  in
  Alcotest.(check bool) "bars drawn" true (String.contains out '#');
  Alcotest.(check bool) "labels present" true
    (String.length out > 0
    && String.split_on_char '\n' out |> List.exists (fun l -> String.contains l 'x'))

let test_bars_zero_peak () =
  let out =
    render (Report.grouped_bars ~title:"t" ~unit_label:"u" ~series:[ "s" ] [ ("z", [ 0.0 ]) ])
  in
  Alcotest.(check bool) "no bar for zero" true (not (String.contains out '#'))

let test_grouped_bars () =
  let out =
    render
      (Report.grouped_bars ~title:"g" ~unit_label:"s" ~series:[ "kvm"; "docker" ]
         [ ("app1", [ 1.0; 2.0 ]); ("app2", [ 3.0; 4.0 ]) ])
  in
  Alcotest.(check bool) "series labels" true
    (String.split_on_char '\n' out
    |> List.exists (fun l ->
           String.length l >= 3
           &&
           let rec contains i =
             i + 3 <= String.length l
             && (String.sub l i 3 = "kvm" || contains (i + 1))
           in
           contains 0))

let test_grouped_bars_ragged () =
  Alcotest.(check bool) "ragged group rejected" true
    (try
       ignore
         (render
            (Report.grouped_bars ~title:"g" ~unit_label:"s" ~series:[ "a"; "b" ]
               [ ("x", [ 1.0 ]) ]));
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "duration" `Quick test_duration;
    Alcotest.test_case "table" `Quick test_table;
    Alcotest.test_case "table ragged" `Quick test_table_ragged;
    Alcotest.test_case "bars" `Quick test_bars;
    Alcotest.test_case "bars zero peak" `Quick test_bars_zero_peak;
    Alcotest.test_case "grouped bars" `Quick test_grouped_bars;
    Alcotest.test_case "grouped ragged" `Quick test_grouped_bars_ragged;
  ]
