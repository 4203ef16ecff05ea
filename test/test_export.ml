open Ksurf
module E = Experiments

(* CSV writing + experiment exporters. *)

let test_escape () =
  Alcotest.(check string) "plain" "abc" (Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape "a\"b");
  Alcotest.(check string) "newline" "\"a\nb\"" (Csv.escape "a\nb")

let test_line () =
  Alcotest.(check string) "joined" "a,\"b,c\",d" (Csv.line [ "a"; "b,c"; "d" ])

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_write_roundtrip () =
  let path = Filename.temp_file "ksurf-csv" ".csv" in
  Csv.write ~path ~header:[ "x"; "y" ] ~rows:[ [ "1"; "2" ]; [ "3"; "4" ] ];
  Alcotest.(check string) "content" "x,y\n1,2\n3,4\n" (read_file path);
  Sys.remove path

let test_write_ragged () =
  let path = Filename.temp_file "ksurf-csv" ".csv" in
  Alcotest.(check bool) "ragged rejected" true
    (try
       Csv.write ~path ~header:[ "x"; "y" ] ~rows:[ [ "1" ] ];
       false
     with Invalid_argument _ -> true);
  Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "ksurf-export" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let line_count path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> l <> "")
  |> List.length

(* A result's CSV files, written through the one writer. *)
let export ~dir columns t = List.map (E.write_csv ~dir) (E.csvs columns t)

let test_export_table2 () =
  with_temp_dir (fun dir ->
      let t = E.Breakdown.run E.Breakdown.table2 (E.context E.Quick) in
      match export ~dir (E.Breakdown.columns E.Breakdown.table2) t with
      | [ path ] ->
          (* 3 environments x 3 statistics + header. *)
          Alcotest.(check int) "rows" 10 (line_count path)
      | _ -> Alcotest.fail "expected one file")

let test_export_fig3 () =
  with_temp_dir (fun dir ->
      let apps = List.filter_map Apps.by_name [ "silo" ] in
      let t = E.Fig3.run ~apps (E.context E.Quick) in
      match export ~dir E.Fig3.columns t with
      | [ path ] -> Alcotest.(check int) "4 cells + header" 5 (line_count path)
      | _ -> Alcotest.fail "expected one file")

let test_export_dose () =
  with_temp_dir (fun dir ->
      let t =
        {
          E.Dose.plan_name = "mixed";
          cells =
            [
              {
                E.Dose.env = "native";
                intensity = 1.0;
                p99 = 1234.6;
                cov = 0.25;
                injections = 42;
                retries = 7;
                degraded = true;
                survivors = 63;
              };
            ];
        }
      in
      match export ~dir E.Dose.columns t with
      | [ path ] ->
          Alcotest.(check int) "1 cell + header" 2 (line_count path);
          (* The degraded stamp and survivor count must reach the CSV. *)
          Alcotest.(check bool) "degraded stamped" true
            (let contents = read_file path in
             List.exists
               (fun line -> line = "native,1.00,1235,0.2500,42,7,true,63")
               (String.split_on_char '\n' contents))
      | _ -> Alcotest.fail "expected one file")

(* Column-order drift shows here, without a simulation: every CSV a
   study declares has the header of its committed baseline, and every
   committed baseline is a CSV some study declares. *)
let test_headers_match_baselines () =
  let declared = List.concat_map (fun (s : E.study) -> s.E.exports ()) E.studies in
  List.iter
    (fun (file, header) ->
      let baseline = Filename.concat "../exports" file in
      Alcotest.(check bool) (baseline ^ " committed") true
        (Sys.file_exists baseline);
      Alcotest.(check string) (file ^ " header")
        (In_channel.with_open_bin baseline In_channel.input_line
        |> Option.value ~default:"")
        (Csv.line header))
    declared;
  Array.iter
    (fun file ->
      if Filename.check_suffix file ".csv" then
        Alcotest.(check bool)
          ("exports/" ^ file ^ " declared by a study")
          true
          (List.mem_assoc file declared))
    (Sys.readdir "../exports")

let suite =
  [
    Alcotest.test_case "escape" `Quick test_escape;
    Alcotest.test_case "headers match baselines" `Quick
      test_headers_match_baselines;
    Alcotest.test_case "export dose" `Quick test_export_dose;
    Alcotest.test_case "line" `Quick test_line;
    Alcotest.test_case "write roundtrip" `Quick test_write_roundtrip;
    Alcotest.test_case "write ragged" `Quick test_write_ragged;
    Alcotest.test_case "export table2" `Slow test_export_table2;
    Alcotest.test_case "export fig3" `Slow test_export_fig3;
  ]
