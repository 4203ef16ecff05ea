(* Per-call static footprint by abstract interpretation.

   A syscall's [ops : Arg.t -> op list] program is a total function
   over a small argument lattice: the size buckets of its argument
   model times its object stripes times its flag values.  Enumerating
   the whole lattice and unioning the effects of every op yields the
   complete may-set of kernel structures the call can ever touch —
   no simulator run required, and no interleaving luck involved.

   Soundness direction: static ⊇ dynamic.  Every lock the [Instance]
   interpreter can take while executing the program must appear here,
   including the *implied* acquisitions the op vocabulary hides behind
   probabilistic paths: a dcache miss fills under the dcache lock, a
   page-cache miss fills under a page-cache-tree stripe, a slab
   refill and every buddy allocation take the zone lock, and a
   cgroup-charge spill serialises on the css lock.  The agreement
   tests in test/test_staticcheck.ml execute every call dynamically
   and assert the subset relation. *)

module Ops = Ksurf_kernel.Ops
module Category = Ksurf_kernel.Category
module Arg = Ksurf_syscalls.Arg
module Spec = Ksurf_syscalls.Spec

type t = {
  name : string;
  number : int;
  categories : Category.t list;
  locks : Ops.lock_ref list;
  rw_reads : Ops.rw_ref list;
  rw_writes : Ops.rw_ref list;
  machinery : Ops.machinery list;
  ipi : bool;
  rcu : bool;
  block_io : bool;
  sleeps : bool;
  arg_points : int;
}

(* The lock-class name the simulator's instances use (and lockdep
   normalises to): [Instance.boot] names the page-cache-tree stripes
   "pct" and the futex buckets "futex"; everything else matches
   [Ops.lock_ref_name]. *)
let class_of_lock_ref = function
  | Ops.Page_cache_tree -> "pct"
  | Ops.Futex_bucket -> "futex"
  | l -> Ops.lock_ref_name l

let class_of_rw_ref = Ops.rw_ref_name

(* Every argument point the model distinguishes: one representative
   size per coverage bucket (same-bucket sizes select the same paths by
   construction, mirroring Coverage.universe_of_call), every object
   stripe, every flag value.  Bounded by 4 buckets x 16 objects x 8
   flags, so full enumeration is cheap. *)
let lattice_points (model : Arg.model) =
  let sizes =
    if Array.length model.Arg.sizes = 0 then [ 0 ]
    else
      Array.to_list model.Arg.sizes
      |> List.map (fun s -> (Arg.size_bucket s, s))
      |> List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b)
      |> List.map snd
  in
  let points = ref [] in
  List.iter
    (fun size ->
      for obj = 0 to max 1 model.Arg.max_obj - 1 do
        for flags = 0 to max 1 model.Arg.max_flags - 1 do
          points := { Arg.size; obj; flags } :: !points
        done
      done)
    sizes;
  List.rev !points

type acc = {
  mutable a_locks : Ops.lock_ref list;
  mutable a_reads : Ops.rw_ref list;
  mutable a_writes : Ops.rw_ref list;
  mutable a_ipi : bool;
  mutable a_rcu : bool;
  mutable a_block : bool;
  mutable a_sleeps : bool;
}

let add_lock acc l = if not (List.mem l acc.a_locks) then acc.a_locks <- l :: acc.a_locks

let rec absorb_op acc (op : Ops.op) =
  match op with
  | Ops.Cpu _ -> ()
  | Ops.Lock (l, _) -> add_lock acc l
  | Ops.With_lock (l, _, body) ->
      add_lock acc l;
      List.iter (absorb_op acc) body
  | Ops.Read_lock (r, _) ->
      if not (List.mem r acc.a_reads) then acc.a_reads <- r :: acc.a_reads
  | Ops.Write_lock (r, _) ->
      if not (List.mem r acc.a_writes) then acc.a_writes <- r :: acc.a_writes
  | Ops.Dcache_lookup -> add_lock acc Ops.Dcache (* miss fills under it *)
  | Ops.Page_cache_lookup -> add_lock acc Ops.Page_cache_tree (* miss path *)
  | Ops.Slab_alloc -> add_lock acc Ops.Zone (* per-cpu magazine refill *)
  | Ops.Page_alloc _ -> add_lock acc Ops.Zone
  | Ops.Tlb_shootdown -> acc.a_ipi <- true
  | Ops.Rcu_sync -> acc.a_rcu <- true
  | Ops.Block_io _ -> acc.a_block <- true
  | Ops.Cgroup_charge -> add_lock acc Ops.Cgroup_css (* charge spill path *)
  | Ops.Sleep _ -> acc.a_sleeps <- true

let sort_by f l = List.sort (fun a b -> String.compare (f a) (f b)) l

let of_spec (spec : Spec.t) =
  let acc =
    {
      a_locks = [];
      a_reads = [];
      a_writes = [];
      a_ipi = false;
      a_rcu = false;
      a_block = false;
      a_sleeps = false;
    }
  in
  let points = lattice_points spec.Spec.arg_model in
  List.iter
    (fun arg -> List.iter (absorb_op acc) (spec.Spec.ops arg))
    points;
  let machinery =
    List.filter
      (fun m ->
        List.exists
          (fun cat -> List.mem m (Ops.machinery_of_category cat))
          spec.Spec.categories)
      Ops.all_machinery
  in
  {
    name = spec.Spec.name;
    number = spec.Spec.number;
    categories = spec.Spec.categories;
    locks = sort_by Ops.lock_ref_name acc.a_locks;
    rw_reads = sort_by Ops.rw_ref_name acc.a_reads;
    rw_writes = sort_by Ops.rw_ref_name acc.a_writes;
    machinery;
    ipi = acc.a_ipi;
    rcu = acc.a_rcu;
    block_io = acc.a_block;
    sleeps = acc.a_sleeps;
    arg_points = List.length points;
  }

let lock_classes t =
  List.map class_of_lock_ref t.locks
  @ List.map class_of_rw_ref t.rw_reads
  @ List.map class_of_rw_ref t.rw_writes
  |> List.sort_uniq String.compare

let all =
  let cached = ref None in
  fun () ->
    match !cached with
    | Some fps -> fps
    | None ->
        let fps =
          Array.to_list Ksurf_syscalls.Syscalls.all |> List.map of_spec
        in
        cached := Some fps;
        fps

let find fps name = List.find_opt (fun fp -> fp.name = name) fps

let pp ppf t =
  let names f l = String.concat "," (List.map f l) in
  Format.fprintf ppf "%-18s locks[%s]" t.name
    (names Ops.lock_ref_name t.locks);
  if t.rw_reads <> [] then
    Format.fprintf ppf " rd[%s]" (names Ops.rw_ref_name t.rw_reads);
  if t.rw_writes <> [] then
    Format.fprintf ppf " wr[%s]" (names Ops.rw_ref_name t.rw_writes);
  Format.fprintf ppf " daemons[%s]" (names Ops.machinery_name t.machinery);
  if t.ipi then Format.fprintf ppf " ipi";
  if t.rcu then Format.fprintf ppf " rcu";
  if t.block_io then Format.fprintf ppf " blkio";
  if t.sleeps then Format.fprintf ppf " sleeps"

let csv_header =
  [
    "syscall"; "number"; "categories"; "locks"; "rw_reads"; "rw_writes";
    "machinery"; "ipi"; "rcu"; "block_io"; "sleeps"; "arg_points";
  ]

let csv_rows fps =
  List.map
    (fun t ->
      [
        t.name;
        string_of_int t.number;
        String.concat "+" (List.map Category.to_string t.categories);
        String.concat "+" (List.map Ops.lock_ref_name t.locks);
        String.concat "+" (List.map Ops.rw_ref_name t.rw_reads);
        String.concat "+" (List.map Ops.rw_ref_name t.rw_writes);
        String.concat "+" (List.map Ops.machinery_name t.machinery);
        string_of_bool t.ipi;
        string_of_bool t.rcu;
        string_of_bool t.block_io;
        string_of_bool t.sleeps;
        string_of_int t.arg_points;
      ])
    fps
