open Ksurf

let test_table_size () =
  Alcotest.(check bool) "at least 150 modeled calls" true (Syscalls.count >= 150)

let test_names_unique () =
  let names = Syscalls.names () in
  Alcotest.(check int) "no duplicates" (List.length names)
    (List.length (List.sort_uniq String.compare names))

let test_lookup_by_name () =
  (match Syscalls.by_name "read" with
  | Some s ->
      Alcotest.(check int) "read is syscall 0" 0 s.Spec.number;
      Alcotest.(check bool) "file-io" true (Spec.in_category s Category.File_io)
  | None -> Alcotest.fail "read missing");
  Alcotest.(check bool) "unknown" true (Syscalls.by_name "frobnicate" = None)

let test_lookup_by_number () =
  match Syscalls.by_number 57 with
  | Some s -> Alcotest.(check string) "fork" "fork" s.Spec.name
  | None -> Alcotest.fail "fork missing"

let test_every_category_populated () =
  List.iter
    (fun cat ->
      let n = List.length (Syscalls.in_category cat) in
      if n < 10 then
        Alcotest.failf "category %s has only %d calls"
          (Category.to_string cat) n)
    Category.all

let test_dual_category_chmod () =
  (* The paper's example: chmod is both fs-mgmt and permission. *)
  match Syscalls.by_name "chmod" with
  | Some s ->
      Alcotest.(check bool) "fs-mgmt" true (Spec.in_category s Category.Fs_mgmt);
      Alcotest.(check bool) "perm" true (Spec.in_category s Category.Perm)
  | None -> Alcotest.fail "chmod missing"

let test_every_spec_produces_ops () =
  let rng = Prng.create 99 in
  Array.iter
    (fun (s : Spec.t) ->
      for _ = 1 to 5 do
        let arg = Arg.generate s.Spec.arg_model rng in
        let ops = s.Spec.ops arg in
        if ops = [] then Alcotest.failf "%s: empty op program" s.Spec.name;
        if Ops.total_fixed_cost ops < 0.0 then
          Alcotest.failf "%s: negative fixed cost" s.Spec.name
      done)
    Syscalls.all

let test_spec_validation () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty name rejected" true
    (raises (fun () ->
         ignore
           (Spec.make ~name:"" ~number:1 ~categories:[ Category.Ipc ]
              ~doc:"x" (fun _ -> []))));
  Alcotest.(check bool) "no categories rejected" true
    (raises (fun () ->
         ignore (Spec.make ~name:"x" ~number:1 ~categories:[] ~doc:"x" (fun _ -> []))))

let test_size_sensitivity () =
  (* read's op program grows with the transfer size. *)
  let read = Option.get (Syscalls.by_name "read") in
  let cost size =
    Ops.total_fixed_cost (read.Spec.ops { Arg.size; obj = 0; flags = 0 })
  in
  Alcotest.(check bool) "1MB costs more than 64B" true (cost (1 lsl 20) > cost 64)

let test_mm_calls_shootdown () =
  (* munmap must invalidate TLBs; getpid must not. *)
  let has_shootdown name =
    let s = Option.get (Syscalls.by_name name) in
    List.exists
      (function Ops.Tlb_shootdown -> true | _ -> false)
      (s.Spec.ops Arg.default)
  in
  Alcotest.(check bool) "munmap shoots down" true (has_shootdown "munmap");
  Alcotest.(check bool) "getpid does not" false (has_shootdown "getpid")

let qcheck_arg_roundtrip =
  QCheck.Test.make ~name:"arg to/of string roundtrip" ~count:300
    QCheck.(triple small_nat small_nat small_nat)
    (fun (size, obj, flags) ->
      let arg = { Arg.size; obj; flags } in
      Arg.of_string (Arg.to_string arg) = Some arg)

let test_arg_of_string_malformed () =
  Alcotest.(check bool) "garbage" true (Arg.of_string "garbage" = None);
  Alcotest.(check bool) "too few" true (Arg.of_string "1:2" = None);
  Alcotest.(check bool) "non-numeric" true (Arg.of_string "a:b:c" = None)

let qcheck_generate_within_model =
  QCheck.Test.make ~name:"generated args within model" ~count:300
    QCheck.small_int
    (fun seed ->
      let rng = Prng.create seed in
      let model = Arg.io in
      let arg = Arg.generate model rng in
      Array.exists (fun s -> s = arg.Arg.size) model.Arg.sizes
      && arg.Arg.obj >= 0
      && arg.Arg.obj < model.Arg.max_obj
      && arg.Arg.flags >= 0
      && arg.Arg.flags < model.Arg.max_flags)

let test_size_bucket_monotone () =
  let prev = ref (-1) in
  List.iter
    (fun size ->
      let b = Arg.size_bucket size in
      if b < !prev then Alcotest.failf "bucket not monotone at %d" size;
      prev := b)
    [ 0; 1; 64; 4096; 65536; 1 lsl 20; 1 lsl 26 ];
  Alcotest.(check int) "zero size is bucket 0" 0 (Arg.size_bucket 0);
  Alcotest.(check bool) "4K and 1M differ" true
    (Arg.size_bucket 4096 <> Arg.size_bucket (1 lsl 20))

(* Eager table validation: malformed tables must die at build time
   with a message naming the offending entry, not surface later as a
   silently shadowed Hashtbl binding. *)
let test_table_validation () =
  let dummy ?(name = "zz_ctl") ?(number = 9990) () =
    Spec.make ~name ~number ~categories:[ Category.Ipc ] ~doc:"control"
      (fun _ -> [ Ops.Cpu 10.0 ])
  in
  let module Table = Ksurf_syscalls.Table in
  Alcotest.(check int) "a valid list passes through" 2
    (List.length (Table.validate [ dummy (); dummy ~name:"zz_two" ~number:9991 () ]));
  let expect_invalid label ~mentions specs =
    match Table.validate specs with
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s message mentions %s" label mentions)
          true
          (Test_util.contains ~sub:mentions msg)
    | _ -> Alcotest.failf "%s was accepted" label
  in
  expect_invalid "duplicate name" ~mentions:"zz_ctl"
    [ dummy (); dummy ~number:9991 () ];
  expect_invalid "duplicate number" ~mentions:"9990"
    [ dummy (); dummy ~name:"zz_two" () ];
  expect_invalid "empty categories" ~mentions:"zz_ctl"
    [ { (dummy ()) with Spec.categories = [] } ]

let test_duplicate_number_index () =
  (* Syscalls.all is built from the validated table, so the duplicate
     check in the number index is a backstop; assert the table itself
     carries unique numbers. *)
  let numbers =
    Array.to_list Syscalls.all |> List.map (fun s -> s.Spec.number)
  in
  Alcotest.(check int) "numbers unique" (List.length numbers)
    (List.length (List.sort_uniq Int.compare numbers))

(* --- the op-program memo ------------------------------------------ *)

(* A spec whose program spells out its argument, with a counter on the
   builder, so a test can tell a memo hit from a build. *)
let counting_spec () =
  let builds = ref 0 in
  let spec =
    Spec.make ~name:"zz_memo" ~number:9980 ~categories:[ Category.Ipc ] ~doc:"memo probe"
      ~arg_model:{ Arg.sizes = [| 64; 4096 |]; max_obj = 16; max_flags = 4 }
      (fun arg ->
        incr builds;
        [
          Ops.Cpu (float_of_int arg.Arg.size);
          Ops.Page_alloc arg.Arg.obj;
          Ops.Block_io { bytes = arg.Arg.flags; write = false };
        ])
  in
  (spec, builds)

let spells (arg : Arg.t) =
  [
    Ops.Cpu (float_of_int arg.Arg.size);
    Ops.Page_alloc arg.Arg.obj;
    Ops.Block_io { bytes = arg.Arg.flags; write = false };
  ]

let test_memo_hit_is_shared () =
  let spec, builds = counting_spec () in
  let arg = { Arg.size = 4096; obj = 15; flags = 3 } in
  let first = spec.Spec.ops arg in
  Alcotest.(check bool) "program matches argument" true (first = spells arg);
  Alcotest.(check bool) "repeat is physically equal" true (spec.Spec.ops arg == first);
  Alcotest.(check int) "built once" 1 !builds;
  Alcotest.(check bool) "neighbour gets its own program" true
    (spec.Spec.ops { arg with Arg.obj = 14 } = spells { arg with Arg.obj = 14 });
  Alcotest.(check int) "built twice" 2 !builds;
  (* Every call in the table memoises every argument its model draws. *)
  let rng = Prng.create 5 in
  Array.iter
    (fun (s : Spec.t) ->
      let arg = Arg.generate s.Spec.arg_model rng in
      if not (s.Spec.ops arg == s.Spec.ops arg) then
        Alcotest.failf "%s: in-model program rebuilt" s.Spec.name)
    Syscalls.all

let test_memo_out_of_model () =
  let spec, builds = counting_spec () in
  List.iter
    (fun arg ->
      let before = !builds in
      Alcotest.(check bool) (Arg.to_string arg ^ " is the builder's program") true
        (spec.Spec.ops arg = spells arg);
      ignore (spec.Spec.ops arg);
      Alcotest.(check int) (Arg.to_string arg ^ " built on every call") (before + 2) !builds)
    [
      { Arg.size = 512; obj = 0; flags = 0 } (* tailbench request size *);
      { Arg.size = 64; obj = 63; flags = 0 } (* object past max_obj *);
      { Arg.size = 64; obj = 0; flags = 4 };
      { Arg.size = 64; obj = -1; flags = 0 };
    ];
  (* The table's own calls: read of 512 bytes is not in [Arg.io]. *)
  let read = Option.get (Syscalls.by_name "read") in
  Alcotest.(check bool) "read 512 copies 512 bytes" true
    (List.mem (Ops.Cpu (40.0 +. (0.062 *. 512.0)))
       (read.Spec.ops { Arg.size = 512; obj = 0; flags = 0 }))

let test_memo_across_domains () =
  (* Two domains race to fill a fresh memo; both must see programs
     structurally equal to what the builder spells out. *)
  let spec, _ = counting_spec () in
  let args =
    List.concat_map
      (fun size ->
        List.concat_map
          (fun obj -> List.init 4 (fun flags -> { Arg.size; obj; flags }))
          (List.init 16 Fun.id))
      [ 64; 4096 ]
  in
  let sweep () = List.map (fun arg -> spec.Spec.ops arg) args in
  let other = Domain.spawn sweep in
  let mine = sweep () in
  let theirs = Domain.join other in
  Alcotest.(check bool) "domains agree" true (mine = theirs);
  Alcotest.(check bool) "programs match arguments" true (mine = List.map spells args)

(* Memoisation is invisible: for every call in the table, a covering
   memo over a model wider than the call's (two extra sizes, 64
   objects) returns the program the call's own [ops] builds, for
   arguments inside and outside both models.  A repeat call returns an
   equal program, and the same one when the covering model admits the
   argument. *)
let qcheck_covering_invisible =
  let extra_sizes = [| 0; 100; 512; 8192; 16_384 |] in
  let cover (s : Spec.t) =
    let model = s.Spec.arg_model in
    { model with Arg.sizes = Array.append model.Arg.sizes [| 512; 16_384 |]; max_obj = 64 }
  in
  let covered = Array.map (fun s -> Spec.covering s (cover s)) Syscalls.all in
  let arg_gen =
    QCheck.Gen.(
      map
        (fun (((i, pick), (extra, obj)), flags) -> (i, pick, extra, obj, flags))
        (pair
           (pair
              (pair (int_bound (Array.length Syscalls.all - 1)) bool)
              (pair (int_bound (Array.length extra_sizes - 1)) (int_bound 127)))
           (int_bound 15)))
  in
  QCheck.Test.make ~name:"covering memo is invisible" ~count:2_000
    (QCheck.make
       ~print:(fun (i, pick, extra, obj, flags) ->
         Printf.sprintf "%s pick=%b extra=%d obj=%d flags=%d" Syscalls.all.(i).Spec.name pick
           extra obj flags)
       arg_gen)
    (fun (i, pick, extra, obj, flags) ->
      let spec = Syscalls.all.(i) in
      let model = cover spec in
      let sizes = spec.Spec.arg_model.Arg.sizes in
      let size = if pick then sizes.(obj mod Array.length sizes) else extra_sizes.(extra) in
      let arg = { Arg.size; obj; flags } in
      let first = covered.(i).Spec.ops arg in
      let again = covered.(i).Spec.ops arg in
      let admitted =
        Array.mem size model.Arg.sizes && obj < model.Arg.max_obj && flags < model.Arg.max_flags
      in
      first = spec.Spec.ops arg && again = first && ((not admitted) || again == first))

let suite =
  [
    Alcotest.test_case "table size" `Quick test_table_size;
    Alcotest.test_case "table validation" `Quick test_table_validation;
    Alcotest.test_case "numbers unique" `Quick test_duplicate_number_index;
    Alcotest.test_case "names unique" `Quick test_names_unique;
    Alcotest.test_case "by_name" `Quick test_lookup_by_name;
    Alcotest.test_case "by_number" `Quick test_lookup_by_number;
    Alcotest.test_case "every category populated" `Quick
      test_every_category_populated;
    Alcotest.test_case "chmod dual category" `Quick test_dual_category_chmod;
    Alcotest.test_case "every spec produces ops" `Quick
      test_every_spec_produces_ops;
    Alcotest.test_case "spec validation" `Quick test_spec_validation;
    Alcotest.test_case "size sensitivity" `Quick test_size_sensitivity;
    Alcotest.test_case "mm calls shoot down" `Quick test_mm_calls_shootdown;
    Alcotest.test_case "malformed arg strings" `Quick test_arg_of_string_malformed;
    Alcotest.test_case "size bucket monotone" `Quick test_size_bucket_monotone;
    Alcotest.test_case "memo hit is shared" `Quick test_memo_hit_is_shared;
    Alcotest.test_case "memo out of model" `Quick test_memo_out_of_model;
    Alcotest.test_case "memo across domains" `Quick test_memo_across_domains;
    QCheck_alcotest.to_alcotest qcheck_arg_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_generate_within_model;
    QCheck_alcotest.to_alcotest qcheck_covering_invisible;
  ]

let test_ops_pp () =
  List.iter
    (fun (op, expect) ->
      Alcotest.(check string) "pp" expect (Format.asprintf "%a" Ops.pp_op op))
    [
      (Ops.Cpu 100.0, "cpu(100ns)");
      (Ops.Lock (Ops.Journal, Dist.constant 1.0), "lock(journal)");
      (Ops.Tlb_shootdown, "tlb_shootdown");
      (Ops.Block_io { bytes = 64; write = true }, "block_write(64B)");
      (Ops.Page_alloc 2, "page_alloc(order=2)");
    ]

let test_global_lock_refs () =
  Alcotest.(check bool) "journal is global" true
    (List.mem Ops.Journal Ops.global_lock_refs);
  Alcotest.(check bool) "runqueue is not" false
    (List.mem Ops.Runqueue Ops.global_lock_refs)

let test_spec_pp () =
  let s = Option.get (Syscalls.by_name "chmod") in
  let rendered = Format.asprintf "%a" Spec.pp s in
  Alcotest.(check bool) "mentions both categories" true
    (String.length rendered > 0
    &&
    let has sub =
      let n = String.length sub and l = String.length rendered in
      let rec go i = i + n <= l && (String.sub rendered i n = sub || go (i + 1)) in
      go 0
    in
    has "fs-mgmt" && has "perm")

let suite =
  suite
  @ [
      Alcotest.test_case "ops pp" `Quick test_ops_pp;
      Alcotest.test_case "global lock refs" `Quick test_global_lock_refs;
      Alcotest.test_case "spec pp" `Quick test_spec_pp;
    ]
