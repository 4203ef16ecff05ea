open Ksurf

let test_release_together () =
  let engine = Engine.create () in
  let barrier = Barrier.create ~engine ~name:"b" ~parties:3 in
  let times = ref [] in
  List.iter
    (fun start ->
      Engine.spawn ~at:start engine (fun () ->
          Barrier.arrive barrier;
          times := Engine.now engine :: !times))
    [ 5.0; 15.0; 30.0 ];
  Engine.run engine;
  List.iter
    (fun t -> Alcotest.(check (float 1e-9)) "released at last arrival" 30.0 t)
    !times

let test_reusable_generations () =
  let engine = Engine.create () in
  let barrier = Barrier.create ~engine ~name:"b" ~parties:2 in
  let log = ref [] in
  for p = 0 to 1 do
    Engine.spawn engine (fun () ->
        for round = 1 to 3 do
          Engine.delay (float_of_int ((p * 7) + round));
          Barrier.arrive barrier;
          log := (round, p, Engine.now engine) :: !log
        done)
  done;
  Engine.run engine;
  Alcotest.(check int) "3 generations" 3 (Barrier.generation barrier);
  (* Within a round both parties resume at the same instant. *)
  List.iter
    (fun round ->
      let times =
        List.filter_map
          (fun (r, _, t) -> if r = round then Some t else None)
          !log
      in
      match times with
      | [ a; b ] -> Alcotest.(check (float 1e-9)) "synchronous" a b
      | _ -> Alcotest.fail "wrong party count")
    [ 1; 2; 3 ]

let test_single_party () =
  let engine = Engine.create () in
  let barrier = Barrier.create ~engine ~name:"b" ~parties:1 in
  let passed = ref false in
  Engine.spawn engine (fun () ->
      Barrier.arrive barrier;
      passed := true);
  Engine.run engine;
  Alcotest.(check bool) "no deadlock with one party" true !passed

let test_arrive_with_cost () =
  let engine = Engine.create () in
  let barrier = Barrier.create ~engine ~name:"b" ~parties:4 in
  let finish = ref nan in
  for _ = 1 to 4 do
    Engine.spawn engine (fun () ->
        Barrier.arrive_with_cost barrier ~per_party_cost:10.0;
        finish := Engine.now engine)
  done;
  Engine.run engine;
  (* log2(4) = 2 rounds at 10 each. *)
  Alcotest.(check (float 1e-9)) "dissemination cost" 20.0 !finish

let test_invalid_parties () =
  let engine = Engine.create () in
  Alcotest.(check bool) "0 parties rejected" true
    (try
       ignore (Barrier.create ~engine ~name:"b" ~parties:0);
       false
     with Invalid_argument _ -> true)

let test_waiting_count () =
  let engine = Engine.create () in
  let barrier = Barrier.create ~engine ~name:"b" ~parties:3 in
  Engine.spawn engine (fun () -> Barrier.arrive barrier);
  Engine.spawn engine (fun () -> Barrier.arrive barrier);
  Engine.run engine;
  Alcotest.(check int) "two waiting" 2 (Barrier.waiting barrier);
  Engine.spawn engine (fun () -> Barrier.arrive barrier);
  Engine.run engine;
  Alcotest.(check int) "released" 0 (Barrier.waiting barrier)

(* A probe that keeps [Engine.copy_event]s of the barrier's events
   reads each one as it was emitted, although the barrier refills one
   payload block per kind: each kept arrival still reads its own
   generation after the next generation's arrivals. *)
let test_kept_copies_keep_their_payload () =
  let engine = Engine.create () in
  let barrier = Barrier.create ~engine ~name:"b" ~parties:2 in
  let kept = ref [] and live = ref [] in
  Engine.add_probe engine (function
    | Engine.Sync { op; _ } as e ->
        kept := Engine.copy_event e :: !kept;
        live := op :: !live
    | _ -> ());
  for _ = 1 to 2 do
    Engine.spawn engine (fun () ->
        Barrier.arrive barrier;
        Barrier.arrive barrier)
  done;
  Engine.run engine;
  let show = function
    | Engine.Barrier_arrive { generation; arrived; parties } ->
        Printf.sprintf "arrive g%d %d/%d" generation arrived parties
    | Engine.Barrier_release { generation } -> Printf.sprintf "release g%d" generation
    | _ -> "lock op"
  in
  Alcotest.(check (list string))
    "each copy as emitted"
    [
      "arrive g0 1/2"; "arrive g0 2/2"; "release g1"; "arrive g1 1/2"; "arrive g1 2/2";
      "release g2";
    ]
    (List.rev_map (function Engine.Sync { op; _ } -> show op | _ -> "other") !kept);
  (* The payloads the probe saw are the barrier's two blocks, so the
     four live arrivals all read as the last one. *)
  let blocks = List.fold_left (fun acc op -> if List.memq op acc then acc else op :: acc) [] !live in
  Alcotest.(check int) "one payload block per kind" 2 (List.length blocks);
  Alcotest.(check (list string)) "live arrivals read as the last" (List.init 4 (fun _ -> "arrive g1 2/2"))
    (List.filter_map
       (function Engine.Barrier_arrive _ as op -> Some (show op) | _ -> None)
       !live)

let suite =
  [
    Alcotest.test_case "release together" `Quick test_release_together;
    Alcotest.test_case "reusable generations" `Quick test_reusable_generations;
    Alcotest.test_case "single party" `Quick test_single_party;
    Alcotest.test_case "arrive with cost" `Quick test_arrive_with_cost;
    Alcotest.test_case "invalid parties" `Quick test_invalid_parties;
    Alcotest.test_case "waiting count" `Quick test_waiting_count;
    Alcotest.test_case "kept copies keep their payload" `Quick
      test_kept_copies_keep_their_payload;
  ]
