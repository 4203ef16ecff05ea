module Spec = Ksurf_syscalls.Spec
module Arg = Ksurf_syscalls.Arg
module Hash = Ksurf_util.Stable_hash
module Ops = Ksurf_kernel.Ops

module Int_set = Stdlib.Set.Make (Int)

module Set = struct
  type t = Int_set.t

  let empty = Int_set.empty
  let cardinal = Int_set.cardinal
  let union = Int_set.union
  let diff_cardinal a b = Int_set.cardinal (Int_set.diff a b)
  let subset = Int_set.subset
end

(* Discriminant of an op: which argument-independent structure it is.
   Two ops of the same constructor with different lock targets are
   different blocks; sampled hold distributions are not discriminated
   (the same code runs, its duration just varies). *)
let rec op_tag (op : Ops.op) =
  match op with
  | Ops.Cpu _ -> 1
  | Ops.Lock (l, _) -> Hash.combine 3 (Hash.string (Ops.lock_ref_name l))
  | Ops.With_lock (l, _, body) ->
      Hash.combine 15
        (Hash.combine
           (Hash.string (Ops.lock_ref_name l))
           (Hash.ints (List.map op_tag body)))
  | Ops.Read_lock (l, _) -> Hash.combine 4 (Hash.string (Ops.rw_ref_name l))
  | Ops.Write_lock (l, _) -> Hash.combine 5 (Hash.string (Ops.rw_ref_name l))
  | Ops.Dcache_lookup -> 6
  | Ops.Page_cache_lookup -> 7
  | Ops.Slab_alloc -> 8
  | Ops.Page_alloc order -> Hash.combine 9 order
  | Ops.Tlb_shootdown -> 10
  | Ops.Rcu_sync -> 11
  | Ops.Block_io { write; _ } -> Hash.combine 12 (if write then 1 else 0)
  | Ops.Cgroup_charge -> 13
  | Ops.Sleep _ -> 14

(* Argument features that select distinct kernel paths. *)
let arg_feature (arg : Arg.t) =
  Hash.ints [ Arg.size_bucket arg.Arg.size; arg.Arg.flags ]

let blocks_of_call ~prev spec arg =
  let base = Hash.combine (Hash.string spec.Spec.name) (arg_feature arg) in
  let ops = spec.Spec.ops arg in
  let blocks =
    List.mapi (fun i op -> Hash.ints [ base; i; op_tag op ]) ops
  in
  let edge =
    match prev with
    | None -> []
    | Some p ->
        [ Hash.ints [ Hash.string "edge"; Hash.string p.Spec.name;
                      Hash.string spec.Spec.name ] ]
  in
  Int_set.of_list (blocks @ edge)

let of_program (prog : Program.t) =
  let _, acc =
    List.fold_left
      (fun (prev, acc) (call : Program.call) ->
        let blocks = blocks_of_call ~prev call.Program.spec call.Program.arg in
        (Some call.Program.spec, Int_set.union acc blocks))
      (None, Int_set.empty) prog.Program.calls
  in
  acc

(* All blocks one syscall can ever express: every (size bucket, flags)
   combination of its argument model, no edges.  One representative size
   per bucket — by construction same-bucket sizes share all block ids. *)
let universe_of_call (spec : Spec.t) =
  let model = spec.Spec.arg_model in
  let sizes =
    if Array.length model.Arg.sizes = 0 then [ 0 ]
    else
      Array.to_list model.Arg.sizes
      |> List.map (fun s -> (Arg.size_bucket s, s))
      |> List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b)
      |> List.map snd
  in
  let acc = ref Int_set.empty in
  List.iter
    (fun size ->
      for flags = 0 to max 1 model.Arg.max_flags - 1 do
        let arg = { Arg.size; obj = 0; flags } in
        acc := Int_set.union !acc (blocks_of_call ~prev:None spec arg)
      done)
    sizes;
  !acc

let universe =
  let cached = ref None in
  fun () ->
    match !cached with
    | Some u -> u
    | None ->
        let u =
          Array.fold_left
            (fun acc spec -> Int_set.union acc (universe_of_call spec))
            Int_set.empty Ksurf_syscalls.Syscalls.all
        in
        cached := Some u;
        u

let universe_estimate () =
  (* Every (syscall, size bucket, flags) combination contributes its op
     count; enumerate the models exactly. *)
  Array.fold_left
    (fun acc (spec : Spec.t) ->
      let model = spec.Spec.arg_model in
      let buckets =
        Array.to_list model.Arg.sizes
        |> List.map Arg.size_bucket
        |> List.sort_uniq Int.compare
      in
      let combos = ref 0 in
      List.iter
        (fun bucket ->
          for flags = 0 to model.Arg.max_flags - 1 do
            ignore bucket;
            ignore flags;
            incr combos
          done)
        buckets;
      (* Op count depends on args; use a representative arg per combo. *)
      let per_combo =
        let arg =
          { Arg.size = (if Array.length model.Arg.sizes > 0 then model.Arg.sizes.(0) else 0);
            obj = 0; flags = 0 }
        in
        List.length (spec.Spec.ops arg)
      in
      acc + (!combos * per_combo))
    0 Ksurf_syscalls.Syscalls.all
