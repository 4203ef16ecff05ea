(* Static interference matrix (the Table-3 mechanism, derived without
   running anything).

   Two calls interfere when both can acquire the same instance-global
   lock — the locks with one instance per kernel, where contention
   grows with the number of tenants sharing it (Ops.global_lock_refs).
   Striped locks (inode, pipe, futex buckets, page-cache-tree stripes)
   only collide on shared objects and are excluded: the matrix captures
   the structural coupling that partitioning or specialization removes,
   not data sharing the tenants opted into. *)

module Ops = Ksurf_kernel.Ops

type t = {
  classes : (string * string list) list;
      (* global lock class -> calls that can take it, table order *)
  pairs : (string * string * string list) list;
      (* call_a < call_b -> shared global classes *)
}

let global_classes =
  List.map Footprint.class_of_lock_ref Ops.global_lock_refs

let of_footprints fps =
  let global_locks_of fp =
    List.filter
      (fun c -> List.mem c global_classes)
      (List.map Footprint.class_of_lock_ref fp.Footprint.locks)
  in
  let classes =
    List.map
      (fun cls ->
        ( cls,
          List.filter_map
            (fun fp ->
              if List.mem cls (global_locks_of fp) then
                Some fp.Footprint.name
              else None)
            fps ))
      global_classes
  in
  let pairs = ref [] in
  let rec each_pair = function
    | [] -> ()
    | a :: rest ->
        List.iter
          (fun b ->
            let shared =
              List.filter
                (fun c -> List.mem c (global_locks_of b))
                (global_locks_of a)
            in
            if shared <> [] then
              pairs :=
                (a.Footprint.name, b.Footprint.name, shared) :: !pairs)
          rest;
        each_pair rest
  in
  each_pair fps;
  { classes; pairs = List.rev !pairs }

let of_table () = of_footprints (Footprint.all ())

let interfering_pairs t = List.length t.pairs

let total_pairs t =
  (* over the calls that appear under at least one global class *)
  let calls =
    List.concat_map snd t.classes |> List.sort_uniq String.compare
  in
  let n = List.length calls in
  n * (n - 1) / 2

let shared_locks t a b =
  List.filter_map
    (fun (x, y, shared) ->
      if (x = a && y = b) || (x = b && y = a) then Some shared else None)
    t.pairs
  |> List.concat

let pp ppf t =
  Format.fprintf ppf
    "@[<v>static interference: %d of %d call pairs share an instance-global lock@,"
    (interfering_pairs t) (total_pairs t);
  List.iter
    (fun (cls, calls) ->
      if calls <> [] then
        Format.fprintf ppf "  %-14s %2d calls: %s@," cls (List.length calls)
          (String.concat " " calls))
    t.classes;
  Format.fprintf ppf "@]"

let csv_header = [ "call_a"; "call_b"; "shared_global_locks" ]

let csv_rows t =
  List.map (fun (a, b, shared) -> [ a; b; String.concat "+" shared ]) t.pairs
