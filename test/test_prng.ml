open Ksurf

let check_float = Alcotest.(check (float 1e-9))

let test_determinism () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_changes_stream () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if Prng.bits64 a <> Prng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_split_independent_of_position () =
  (* A child stream depends on the parent's seed and label only. *)
  let a = Prng.create 7 in
  let b = Prng.create 7 in
  ignore (Prng.bits64 b);
  ignore (Prng.bits64 b);
  let ca = Prng.split a "child" and cb = Prng.split b "child" in
  Alcotest.(check int64) "same child stream" (Prng.bits64 ca) (Prng.bits64 cb)

let test_split_labels_differ () =
  let p = Prng.create 7 in
  let a = Prng.split p "left" and b = Prng.split p "right" in
  Alcotest.(check bool) "labels give distinct streams" true
    (Prng.bits64 a <> Prng.bits64 b)

let test_copy () =
  let a = Prng.create 9 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.bits64 a)
    (Prng.bits64 b)

let test_int_rejects_bad_bound () =
  let rng = Prng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_uniform_in_range () =
  let rng = Prng.create 11 in
  for _ = 1 to 10_000 do
    let u = Prng.uniform rng in
    if u < 0.0 || u >= 1.0 then Alcotest.fail "uniform out of [0,1)"
  done

let test_uniform_mean () =
  let rng = Prng.create 13 in
  let acc = ref 0.0 in
  let n = 100_000 in
  for _ = 1 to n do
    acc := !acc +. Prng.uniform rng
  done;
  let mean = !acc /. float_of_int n in
  if Float.abs (mean -. 0.5) > 0.01 then
    Alcotest.failf "uniform mean %f too far from 0.5" mean

let test_chance_extremes () =
  let rng = Prng.create 17 in
  Alcotest.(check bool) "p=0 never" false (Prng.chance rng 0.0);
  Alcotest.(check bool) "p=1 always" true (Prng.chance rng 1.0);
  Alcotest.(check bool) "p<0 never" false (Prng.chance rng (-0.5));
  Alcotest.(check bool) "p>1 always" true (Prng.chance rng 1.5)

let test_pick_empty () =
  let rng = Prng.create 19 in
  Alcotest.check_raises "empty pick" (Invalid_argument "Prng.pick: empty array")
    (fun () -> ignore (Prng.pick rng [||]))

let test_seed_of () =
  let rng = Prng.create 37 in
  ignore (Prng.bits64 rng);
  Alcotest.(check int) "seed preserved" 37 (Prng.seed_of rng)

(* Golden values: the first draws of fixed streams, recorded from the
   boxed-[int64] implementation this one replaced.  Any change to the
   state layout or the mixer that moves a single bit fails here before
   it can move a simulated result. *)
let first_8 rng = List.init 8 (fun _ -> Prng.bits64 rng)

let test_golden_create () =
  Alcotest.(check (list int64)) "create 42"
    [
      0x989b3f130a063869L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L;
      0x0c4b6b24ef01890eL; 0xfb16a06e52ec10a7L; 0x3c30fc5fd50692c3L;
      0x4782c4b4c4fdf7c9L; 0x272404a0a3926552L;
    ]
    (first_8 (Prng.create 42))

let test_golden_split () =
  Alcotest.(check (list int64)) "split kernel-0"
    [
      0x64b164d732fe00b9L; 0xe38f76a37a4acce7L; 0x6c94d4c0f7204d68L;
      0x0b07afcbb1e74cd0L; 0x6651027248d50448L; 0x9cbbd98aea221a93L;
      0xd37e84ac2f090e07L; 0xf7d958a0910939b0L;
    ]
    (first_8 (Prng.split (Prng.create 42) "kernel-0"))

let test_golden_derived () =
  let rng = Prng.create 7 in
  Alcotest.(check (list int)) "int 1000" [ 963; 181; 52; 718; 629; 526; 849; 468 ]
    (List.init 8 (fun _ -> Prng.int rng 1000));
  Alcotest.(check (list int64)) "uniform bits"
    [ 0x3fe9f6fe141e86bcL; 0x3fb6650ef5667a58L; 0x3fed327c95c6cb00L; 0x3fc5c87d83edafc8L ]
    (List.init 4 (fun _ -> Int64.bits_of_float (Prng.uniform rng)))

let test_copy_is_independent () =
  let a = Prng.create 9 in
  let b = Prng.copy a in
  ignore (Prng.bits64 a);
  ignore (Prng.bits64 a);
  let c = Prng.copy a in
  Alcotest.(check int64) "copy does not share state" (Prng.bits64 c) (Prng.bits64 a);
  Alcotest.(check int64) "earlier copy unaffected" (first_8 (Prng.create 9) |> List.hd)
    (Prng.bits64 b)

let qcheck_int_in_bounds =
  QCheck.Test.make ~name:"prng int always in [0,n)" ~count:500
    QCheck.(pair small_int (int_bound 1000))
    (fun (seed, n) ->
      let n = n + 1 in
      let rng = Prng.create seed in
      let v = Prng.int rng n in
      v >= 0 && v < n)

let qcheck_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let rng = Prng.create seed in
      let a = Array.of_list l in
      Prng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let qcheck_float_bound =
  QCheck.Test.make ~name:"prng float in [0,x)" ~count:300
    QCheck.(pair small_int pos_float)
    (fun (seed, x) ->
      QCheck.assume (Float.is_finite x && x > 0.0);
      let rng = Prng.create seed in
      let v = Prng.float rng x in
      v >= 0.0 && v <= x)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seeds differ" `Quick test_seed_changes_stream;
    Alcotest.test_case "split position-independent" `Quick
      test_split_independent_of_position;
    Alcotest.test_case "split labels differ" `Quick test_split_labels_differ;
    Alcotest.test_case "copy" `Quick test_copy;
    Alcotest.test_case "int bad bound" `Quick test_int_rejects_bad_bound;
    Alcotest.test_case "uniform range" `Quick test_uniform_in_range;
    Alcotest.test_case "uniform mean" `Quick test_uniform_mean;
    Alcotest.test_case "chance extremes" `Quick test_chance_extremes;
    Alcotest.test_case "pick empty" `Quick test_pick_empty;
    Alcotest.test_case "seed_of" `Quick test_seed_of;
    Alcotest.test_case "golden create" `Quick test_golden_create;
    Alcotest.test_case "golden split" `Quick test_golden_split;
    Alcotest.test_case "golden int/uniform" `Quick test_golden_derived;
    Alcotest.test_case "copy is independent" `Quick test_copy_is_independent;
    QCheck_alcotest.to_alcotest qcheck_int_in_bounds;
    QCheck_alcotest.to_alcotest qcheck_shuffle_is_permutation;
    QCheck_alcotest.to_alcotest qcheck_float_bound;
  ]

let () = ignore check_float
