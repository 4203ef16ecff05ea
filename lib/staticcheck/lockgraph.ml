(* Whole-table static lock-order graph.

   The only op that holds one lock across further acquisitions is
   [Ops.With_lock], so walking every syscall's op program over its
   argument lattice with a held-stack produces exactly the class edges
   the dynamic lockdep could ever observe from syscall programs —
   before any run happens.  Implied acquisitions (cache-miss fills,
   slab refills, buddy allocations, charge spills) count: a dcache
   probe inside a critical section can take the dcache lock on a miss
   even if no run of the simulator happens to miss there.

   A cycle in this graph is a potential deadlock by the same criterion
   the dynamic validator uses (a non-trivial SCC, or a self-edge from
   same-class nesting); the stock table must certify cycle-free, and a
   seeded AB/BA pair of specs must be flagged without running. *)

module Ops = Ksurf_kernel.Ops
module Arg = Ksurf_syscalls.Arg
module Spec = Ksurf_syscalls.Spec
module Finding = Ksurf_analysis.Finding
module Lockdep = Ksurf_analysis.Lockdep

type edge = { src : string; dst : string; witness : string }

type t = {
  nodes : string list;  (** insertion order *)
  edges : edge list;  (** insertion order, first witness per (src, dst) *)
}

type builder = {
  mutable b_nodes : string list;
  node_set : (string, unit) Hashtbl.t;
  edge_tbl : (string * string, unit) Hashtbl.t;
  mutable b_edges : edge list;
}

let note_node b n =
  if not (Hashtbl.mem b.node_set n) then begin
    Hashtbl.add b.node_set n ();
    b.b_nodes <- n :: b.b_nodes
  end

let note_edge b ~src ~dst ~witness =
  note_node b src;
  note_node b dst;
  if not (Hashtbl.mem b.edge_tbl (src, dst)) then begin
    Hashtbl.add b.edge_tbl (src, dst) ();
    b.b_edges <- { src; dst; witness } :: b.b_edges
  end

(* Classes an op may acquire at its point in the program (not counting
   the nested body of a With_lock, which is walked with the outer class
   pushed on the held stack). *)
let shallow_acquisitions (op : Ops.op) =
  match op with
  | Ops.Lock (l, _) | Ops.With_lock (l, _, _) ->
      [ Footprint.class_of_lock_ref l ]
  | Ops.Read_lock (r, _) | Ops.Write_lock (r, _) ->
      [ Footprint.class_of_rw_ref r ]
  | Ops.Dcache_lookup -> [ Footprint.class_of_lock_ref Ops.Dcache ]
  | Ops.Page_cache_lookup -> [ Footprint.class_of_lock_ref Ops.Page_cache_tree ]
  | Ops.Slab_alloc | Ops.Page_alloc _ -> [ Footprint.class_of_lock_ref Ops.Zone ]
  | Ops.Cgroup_charge -> [ Footprint.class_of_lock_ref Ops.Cgroup_css ]
  | Ops.Cpu _ | Ops.Tlb_shootdown | Ops.Rcu_sync
  | Ops.Block_io _ | Ops.Sleep _ ->
      []

let rec walk b (spec : Spec.t) (arg : Arg.t) ~held op =
  let witness dst held_cls =
    Printf.sprintf "syscall %s (size=%d obj=%d flags=%d): %s held while acquiring %s"
      spec.Spec.name arg.Arg.size arg.Arg.obj arg.Arg.flags held_cls dst
  in
  List.iter
    (fun dst ->
      note_node b dst;
      List.iter (fun h -> note_edge b ~src:h ~dst ~witness:(witness dst h)) held)
    (shallow_acquisitions op);
  match op with
  | Ops.With_lock (l, _, body) ->
      let cls = Footprint.class_of_lock_ref l in
      List.iter (walk b spec arg ~held:(cls :: held)) body
  | _ -> ()

let of_specs specs =
  let b =
    {
      b_nodes = [];
      node_set = Hashtbl.create 32;
      edge_tbl = Hashtbl.create 64;
      b_edges = [];
    }
  in
  List.iter
    (fun (spec : Spec.t) ->
      List.iter
        (fun arg ->
          List.iter (walk b spec arg ~held:[]) (spec.Spec.ops arg))
        (Footprint.lattice_points spec.Spec.arg_model))
    specs;
  { nodes = List.rev b.b_nodes; edges = List.rev b.b_edges }

let of_table () = of_specs (Array.to_list Ksurf_syscalls.Syscalls.all)

let edge_count t = List.length t.edges
let node_count t = List.length t.nodes

let cycles t =
  let adjacency = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let existing = Option.value ~default:[] (Hashtbl.find_opt adjacency e.src) in
      Hashtbl.replace adjacency e.src (e.dst :: existing))
    (List.rev t.edges);
  let succs v = Option.value ~default:[] (Hashtbl.find_opt adjacency v) in
  let has_edge src dst =
    List.exists (fun e -> e.src = src && e.dst = dst) t.edges
  in
  let sccs = Lockdep.strongly_connected_components ~nodes:t.nodes ~succs in
  List.filter_map
    (fun scc ->
      let cyclic =
        match scc with
        | [ v ] -> has_edge v v
        | _ :: _ :: _ -> true
        | [] -> false
      in
      if not cyclic then None
      else begin
        let members = List.sort String.compare scc in
        let in_scc c = List.mem c members in
        let witness_lines =
          List.filter_map
            (fun e ->
              if in_scc e.src && in_scc e.dst then Some e.witness else None)
            t.edges
        in
        Some
          (Finding.make ~severity:Finding.Error ~check:"staticcheck"
             ~code:"static-lock-order-cycle"
             ~message:
               (Printf.sprintf "potential deadlock: lock-order cycle [%s]"
                  (String.concat " -> " (members @ [ List.hd members ])))
             ~witness:witness_lines ())
      end)
    sccs

let pp ppf t =
  Format.fprintf ppf "@[<v>static lock-order graph: %d classes, %d edges@,"
    (node_count t) (edge_count t);
  List.iter
    (fun e -> Format.fprintf ppf "  %s -> %s  (%s)@," e.src e.dst e.witness)
    t.edges;
  (match cycles t with
  | [] -> Format.fprintf ppf "  no lock-order cycles: table certified@,"
  | cs ->
      List.iter
        (fun (f : Finding.t) -> Format.fprintf ppf "  CYCLE: %s@," f.Finding.message)
        cs);
  Format.fprintf ppf "@]"

let csv_header = [ "src"; "dst"; "witness" ]
let csv_rows t = List.map (fun e -> [ e.src; e.dst; e.witness ]) t.edges
