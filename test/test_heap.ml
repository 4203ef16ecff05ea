module Heap = Ksurf_sim.Heap

(* Remove and return the earliest (time, payload). *)
let take h =
  let time = Heap.top_time h and payload = Heap.top h in
  Heap.drop h;
  (time, payload)

let test_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check int) "size" 0 (Heap.size h);
  Alcotest.(check bool) "empty never first" false (Heap.top_before h h)

let test_ordering () =
  let h = Heap.create () in
  Heap.push h ~time:3.0 ~seq:0 ~pid:0 "c";
  Heap.push h ~time:1.0 ~seq:1 ~pid:0 "a";
  Heap.push h ~time:2.0 ~seq:2 ~pid:0 "b";
  let order = List.init 3 (fun _ -> snd (take h)) in
  Alcotest.(check (list string)) "sorted by time" [ "a"; "b"; "c" ] order

let test_fifo_tie_break () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~time:5.0 ~seq:i ~pid:0 i
  done;
  let order = List.init 10 (fun _ -> snd (take h)) in
  Alcotest.(check (list int)) "ties in insertion order"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] order

let test_peek () =
  let h = Heap.create () in
  Heap.push h ~time:7.0 ~seq:0 ~pid:3 ();
  Heap.push h ~time:2.0 ~seq:1 ~pid:4 ();
  Alcotest.(check (float 1e-9)) "top time" 2.0 (Heap.top_time h);
  Alcotest.(check int) "top pid" 4 (Heap.top_pid h);
  Alcotest.(check int) "size unchanged by top" 2 (Heap.size h)

let test_growth () =
  let h = Heap.create () in
  for i = 0 to 999 do
    Heap.push h ~time:(float_of_int (999 - i)) ~seq:i ~pid:0 i
  done;
  Alcotest.(check int) "size" 1000 (Heap.size h);
  Alcotest.(check (float 1e-9)) "min time" 0.0 (fst (take h))

let test_push_cell () =
  let h = Heap.create () and cell = [| 4.0 |] in
  Heap.push_cell h cell ~seq:0 ~pid:0 "cell";
  cell.(0) <- 9.0;
  Heap.push h ~time:6.0 ~seq:1 ~pid:0 "plain";
  Alcotest.(check (pair (float 1e-9) string)) "time read at push" (4.0, "cell") (take h);
  Alcotest.(check (pair (float 1e-9) string)) "then the plain push" (6.0, "plain")
    (take h)

(* Two heaps on one sequence counter, merged through [top_before], drain
   in the order one heap holding every entry would. *)
let qcheck_top_before_merges =
  QCheck.Test.make ~name:"top_before merges two heaps as one" ~count:200
    QCheck.(list (pair bool (int_bound 5)))
    (fun entries ->
      let a = Heap.create () and b = Heap.create () and one = Heap.create () in
      List.iteri
        (fun seq (left, t) ->
          let time = float_of_int t in
          Heap.push (if left then a else b) ~time ~seq ~pid:0 seq;
          Heap.push one ~time ~seq ~pid:0 seq)
        entries;
      let rec drain () =
        if Heap.is_empty one then Heap.is_empty a && Heap.is_empty b
        else begin
          let src = if Heap.top_before a b then a else b in
          let expected = snd (take one) in
          (not (Heap.is_empty src)) && snd (take src) = expected && drain ()
        end
      in
      drain ())

let qcheck_pop_sorted =
  QCheck.Test.make ~name:"pops come out time-sorted" ~count:200
    QCheck.(list (float_bound_exclusive 1e6))
    (fun times ->
      let h = Heap.create () in
      List.iteri (fun i t -> Heap.push h ~time:t ~seq:i ~pid:0 i) times;
      let rec drain prev =
        if Heap.is_empty h then true
        else
          let t, _ = take h in
          if t < prev then false else drain t
      in
      drain neg_infinity)

let qcheck_size_tracks =
  QCheck.Test.make ~name:"size tracks pushes and pops" ~count:200
    QCheck.(list (float_bound_exclusive 100.0))
    (fun times ->
      let h = Heap.create () in
      List.iteri (fun i t -> Heap.push h ~time:t ~seq:i ~pid:0 ()) times;
      let n = List.length times in
      let ok = ref (Heap.size h = n) in
      for expected = n - 1 downto 0 do
        Heap.drop h;
        if Heap.size h <> expected then ok := false
      done;
      !ok)

(* A payload the test keeps no reference to, with a flag its
   finaliser sets once the GC has reclaimed it.  Built out of line, so
   no register or stack slot of the caller holds it. *)
let[@inline never] push_tracked h ~time ~seq collected =
  let payload = ref seq in
  Gc.finalise (fun _ -> collected := true) payload;
  Heap.push h ~time ~seq ~pid:0 payload

(* A dropped payload is the GC's to reclaim once the drop empties the
   heap, or once a push takes its slot: neither that slot nor the spare
   capacity a grow adds may keep it alive.  (A payload dropped while
   others stay queued is kept until a push takes its slot; DESIGN §6.2
   says why.)  The first push grows the first heap, so its drain is all
   the tracked payload meets. *)
let test_drop_releases () =
  let collected = ref false in
  let h = Heap.create () in
  Heap.push h ~time:1.0 ~seq:0 ~pid:0 (ref 0);
  Heap.drop h;
  push_tracked h ~time:2.0 ~seq:1 collected;
  Heap.drop h;
  Gc.full_major ();
  Alcotest.(check bool) "collected after a drain" true !collected;
  Alcotest.(check int) "the heap outlives it" 0 (Heap.size h);
  let collected = ref false in
  let h = Heap.create () in
  for seq = 1 to 64 do
    Heap.push h ~time:5.0 ~seq ~pid:0 (ref seq)
  done;
  push_tracked h ~time:1.0 ~seq:0 collected;
  Heap.drop h;
  Heap.push h ~time:5.0 ~seq:65 ~pid:0 (ref 65);
  Gc.full_major ();
  Alcotest.(check bool) "collected after a grow" true !collected;
  Alcotest.(check int) "the rest stay queued" 65 (Heap.size h)

type op = Push of int * int * bool | Drop | Drain

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map3 (fun time pid cell -> Push (time, pid, cell)) (int_bound 3) (int_bound 99) bool);
        (3, return Drop);
        (1, return Drain);
      ])

let print_op = function
  | Push (time, pid, cell) -> Printf.sprintf "Push (%d, %d, %b)" time pid cell
  | Drop -> "Drop"
  | Drain -> "Drain"

(* Interleaved pushes, pops and drains against a sorted list: every pop
   yields the model's earliest (time, seq) entry with its own pid and
   payload.  Few distinct times make most keys ties that only seq
   breaks, and drains followed by refills reuse freed slots. *)
let qcheck_matches_model =
  QCheck.Test.make ~name:"interleaved ops match a sorted model" ~count:300
    (QCheck.make ~print:QCheck.Print.(list print_op)
       QCheck.Gen.(list_size (int_range 0 400) op_gen))
    (fun ops ->
      let h = Heap.create () and cell = [| 0.0 |] in
      let model = ref [] and seq = ref 0 and ok = ref true in
      let pop () =
        match !model with
        | [] -> ok := !ok && Heap.is_empty h
        | (time, _, pid, payload) :: rest ->
            model := rest;
            ok :=
              !ok
              && (not (Heap.is_empty h))
              && Heap.top_time h = time
              && Heap.top_pid h = pid
              && Heap.top h == payload;
            if not (Heap.is_empty h) then Heap.drop h
      in
      List.iter
        (fun op ->
          (match op with
          | Push (t, pid, in_cell) ->
              let time = float_of_int t and payload = ref !seq in
              if in_cell then begin
                cell.(0) <- time;
                Heap.push_cell h cell ~seq:!seq ~pid payload
              end
              else Heap.push h ~time ~seq:!seq ~pid payload;
              model := List.merge compare !model [ (time, !seq, pid, payload) ];
              incr seq
          | Drop -> pop ()
          | Drain ->
              while !model <> [] do
                pop ()
              done;
              pop ());
          ok := !ok && Heap.size h = List.length !model)
        ops;
      !ok)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "fifo tie break" `Quick test_fifo_tie_break;
    Alcotest.test_case "peek" `Quick test_peek;
    Alcotest.test_case "growth" `Quick test_growth;
    Alcotest.test_case "push_cell reads the cell at push" `Quick test_push_cell;
    Alcotest.test_case "a dropped payload is collected" `Quick test_drop_releases;
    QCheck_alcotest.to_alcotest qcheck_pop_sorted;
    QCheck_alcotest.to_alcotest qcheck_size_tracks;
    QCheck_alcotest.to_alcotest qcheck_top_before_merges;
    QCheck_alcotest.to_alcotest qcheck_matches_model;
  ]
