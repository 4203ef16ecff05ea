(* Lockdep-style lock-order validator.

   Mirrors the kernel's lockdep at the level this simulator needs:
   locks are grouped into *classes* (the 16 stripes of [k0.inode[i]]
   are one class, and the same class across kernel instances), and
   every "A held while acquiring B" observation adds a class edge
   A -> B with the acquisition context that created it.  A cycle in
   the class graph is a potential deadlock even if this particular run
   got lucky with timing.  Instance-level checks (double acquire,
   release of a lock not held, locks still held when the engine
   drains) are reported directly.

   Events arrive through the [Ksurf_sim.Engine] probe API at *intent*
   time — before the acquiring process blocks — so an acquisition that
   deadlocks still contributes its edge. *)

module Engine = Ksurf_sim.Engine

type mode = Mutex | Read | Write

let mode_label = function Mutex -> "" | Read -> " (read)" | Write -> " (write)"

(* The class rule lives with the lock, so the fault injector shares it;
   this name stays for existing callers. *)
let class_of_instance = Ksurf_sim.Lock.class_of_name

type held_entry = { instance : string; cls : string; mode : mode }

type witness = {
  pid : int;
  time : float;
  held_instance : string;
  acquiring_instance : string;
  held_stack : string list;  (** innermost first *)
}

type t = {
  held : (int, held_entry list) Hashtbl.t;  (** pid -> held stack *)
  edges : (string * string, witness) Hashtbl.t;  (** first witness per edge *)
  mutable edge_order : (string * string) list;  (** reversed insertion order *)
  mutable immediate : Finding.t list;  (** reversed *)
  mutable sync_events : int;
}

let create () =
  {
    held = Hashtbl.create 64;
    edges = Hashtbl.create 64;
    edge_order = [];
    immediate = [];
    sync_events = 0;
  }

let sync_events t = t.sync_events
let edge_count t = Hashtbl.length t.edges

let held_stack t pid = Option.value ~default:[] (Hashtbl.find_opt t.held pid)

let stack_names stack = List.map (fun e -> e.instance) stack

let on_acquire t ~pid ~time ~name ~mode =
  let cls = Ksurf_sim.Lock.class_of_name name in
  let stack = held_stack t pid in
  if List.exists (fun e -> e.instance = name) stack then
    t.immediate <-
      Finding.make ~severity:Finding.Error ~check:"lockdep"
        ~code:"double-acquire"
        ~message:
          (Printf.sprintf "pid %d acquires %s%s while already holding it" pid
             name (mode_label mode))
        ~witness:
          [
            Printf.sprintf "t=%g pid=%d held [%s] -> acquiring %s" time pid
              (String.concat "; " (stack_names stack))
              name;
          ]
        ()
      :: t.immediate;
  List.iter
    (fun outer ->
      let key = (outer.cls, cls) in
      if not (Hashtbl.mem t.edges key) then begin
        Hashtbl.add t.edges key
          {
            pid;
            time;
            held_instance = outer.instance;
            acquiring_instance = name;
            held_stack = stack_names stack;
          };
        t.edge_order <- key :: t.edge_order
      end)
    stack;
  Hashtbl.replace t.held pid ({ instance = name; cls; mode } :: stack)

let rec remove_first name = function
  | [] -> None
  | e :: rest when e.instance = name -> Some rest
  | e :: rest -> Option.map (fun r -> e :: r) (remove_first name rest)

let on_release t ~pid ~time ~name ~mode =
  let stack = held_stack t pid in
  match remove_first name stack with
  | Some rest -> Hashtbl.replace t.held pid rest
  | None ->
      t.immediate <-
        Finding.make ~severity:Finding.Warning ~check:"lockdep"
          ~code:"release-not-held"
          ~message:
            (Printf.sprintf "pid %d releases %s%s which it does not hold" pid
               name (mode_label mode))
          ~witness:
            [
              Printf.sprintf "t=%g pid=%d held [%s]" time pid
                (String.concat "; " (stack_names stack));
            ]
          ()
        :: t.immediate

let on_event t (info : Engine.event_info) =
  match info with
  | Engine.Sync { now; pid; name; op } -> (
      t.sync_events <- t.sync_events + 1;
      match op with
      | Engine.Acquire _ -> on_acquire t ~pid ~time:now ~name ~mode:Mutex
      | Engine.Release -> on_release t ~pid ~time:now ~name ~mode:Mutex
      | Engine.Read_acquire _ -> on_acquire t ~pid ~time:now ~name ~mode:Read
      | Engine.Read_release -> on_release t ~pid ~time:now ~name ~mode:Read
      | Engine.Write_acquire _ -> on_acquire t ~pid ~time:now ~name ~mode:Write
      | Engine.Write_release -> on_release t ~pid ~time:now ~name ~mode:Write
      | Engine.Barrier_arrive _ | Engine.Barrier_release _
      | Engine.Barrier_depart _ ->
          ())
  | Engine.Scheduled _ | Engine.Executed _ | Engine.Suspended _
  | Engine.Woken _ | Engine.Injected _ | Engine.Denied _
  | Engine.Rank_transition _ ->
      ()

(* --- cycle detection -------------------------------------------------- *)

(* Tarjan SCC over the class graph.  Each non-trivial SCC (more than one
   class, or a class with a self-edge from same-class nesting) is one
   potential-deadlock finding, so an AB/BA inversion reports exactly one
   cycle naming both classes. *)
let strongly_connected_components ~nodes ~succs =
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (succs v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if w = v then w :: acc else pop (w :: acc)
      in
      sccs := pop [] :: !sccs
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) nodes;
  List.rev !sccs

let cycle_findings t =
  let adjacency = Hashtbl.create 16 in
  let node_set = Hashtbl.create 16 in
  let nodes = ref [] in
  let note_node n =
    if not (Hashtbl.mem node_set n) then begin
      Hashtbl.add node_set n ();
      nodes := n :: !nodes
    end
  in
  (* Deterministic traversal: follow edge insertion order, not hash order. *)
  List.iter
    (fun (src, dst) ->
      note_node src;
      note_node dst;
      let existing = Option.value ~default:[] (Hashtbl.find_opt adjacency src) in
      Hashtbl.replace adjacency src (dst :: existing))
    (List.rev t.edge_order);
  let succs v =
    List.rev (Option.value ~default:[] (Hashtbl.find_opt adjacency v))
  in
  let sccs = strongly_connected_components ~nodes:(List.rev !nodes) ~succs in
  List.filter_map
    (fun scc ->
      let cyclic =
        match scc with
        | [ v ] -> Hashtbl.mem t.edges (v, v)
        | _ :: _ :: _ -> true
        | [] -> false
      in
      if not cyclic then None
      else begin
        let members = List.sort String.compare scc in
        let in_scc c = List.mem c members in
        let witness_lines =
          List.filter_map
            (fun ((src, dst) as key) ->
              if in_scc src && in_scc dst then
                let w = Hashtbl.find t.edges key in
                Some
                  (Printf.sprintf
                     "edge %s -> %s: pid %d at t=%g held [%s] while acquiring %s"
                     src dst w.pid w.time
                     (String.concat "; " w.held_stack)
                     w.acquiring_instance)
              else None)
            (List.rev t.edge_order)
        in
        Some
          (Finding.make ~severity:Finding.Error ~check:"lockdep"
             ~code:"lock-order-cycle"
             ~message:
               (Printf.sprintf "potential deadlock: lock-order cycle [%s]"
                  (String.concat " -> " (members @ [ List.hd members ])))
             ~witness:witness_lines ())
      end)
    sccs

let leak_findings t =
  let leaks =
    Hashtbl.fold
      (fun pid stack acc ->
        List.fold_left
          (fun acc e ->
            Finding.make ~severity:Finding.Warning ~check:"lockdep"
              ~code:"held-at-drain"
              ~message:
                (Printf.sprintf
                   "pid %d still holds %s%s (class %s) when the engine drained"
                   pid e.instance (mode_label e.mode) e.cls)
              ()
            :: acc)
          acc stack)
      t.held []
  in
  List.sort (fun (a : Finding.t) b -> String.compare a.message b.message) leaks

(* [drained] should be true only when the engine ran out of events: a
   run stopped early by a predicate legitimately leaves locks held. *)
let finish ?(drained = true) t =
  List.rev t.immediate
  @ (if drained then leak_findings t else [])
  @ cycle_findings t
