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

(* A class, interned once per validator.  [after.(id)] is set once the
   edge from this class to the class numbered [id] has been recorded,
   so the hot path tests an edge without building its key. *)
type lock_class = { cname : string; id : int; mutable after : bool array }

type held_entry = { instance : string; cls : lock_class; mode : mode }

(* A lock name's three held entries, made on the name's first
   acquisition: every later acquire pushes one of them as it is. *)
type lock_name = { as_mutex : held_entry; as_read : held_entry; as_write : held_entry }

(* One process's held locks, outermost first: the innermost is
   [entries.(depth - 1)]. *)
type stack = { mutable entries : held_entry array; mutable depth : int }

type witness = {
  pid : int;
  time : float;
  held_instance : string;
  acquiring_instance : string;
  held_stack : string list;  (** innermost first *)
}

type t = {
  names : (string, lock_name) Hashtbl.t;
  classes : (string, lock_class) Hashtbl.t;
  stacks : (int, stack) Hashtbl.t;  (** pid -> held stack *)
  edges : (string * string, witness) Hashtbl.t;  (** first witness per edge *)
  mutable edge_order : (string * string) list;  (** reversed insertion order *)
  mutable immediate : Finding.t list;  (** reversed *)
  mutable sync_events : int;
}

(* The stack of a pid that holds nothing yet; never pushed onto. *)
let no_stack = { entries = [||]; depth = 0 }

let create () =
  {
    names = Hashtbl.create 64;
    classes = Hashtbl.create 64;
    stacks = Hashtbl.create 64;
    edges = Hashtbl.create 64;
    edge_order = [];
    immediate = [];
    sync_events = 0;
  }

let sync_events t = t.sync_events
let edge_count t = Hashtbl.length t.edges

let intern t name =
  match Hashtbl.find t.names name with
  | n -> n
  | exception Not_found ->
      let cname = class_of_instance name in
      let cls =
        match Hashtbl.find_opt t.classes cname with
        | Some c -> c
        | None ->
            let c = { cname; id = Hashtbl.length t.classes; after = [||] } in
            Hashtbl.add t.classes cname c;
            c
      in
      let entry mode = { instance = name; cls; mode } in
      let n = { as_mutex = entry Mutex; as_read = entry Read; as_write = entry Write } in
      Hashtbl.add t.names name n;
      n

let held_stack t pid =
  match Hashtbl.find t.stacks pid with s -> s | exception Not_found -> no_stack

(* [pid]'s stack, made and filed on its first acquisition. *)
let own_stack t pid =
  match Hashtbl.find t.stacks pid with
  | s -> s
  | exception Not_found ->
      let s = { entries = [||]; depth = 0 } in
      Hashtbl.add t.stacks pid s;
      s

let push s e =
  let len = Array.length s.entries in
  if s.depth = len then begin
    let grown = Array.make (max 4 (2 * len)) e in
    Array.blit s.entries 0 grown 0 len;
    s.entries <- grown
  end;
  s.entries.(s.depth) <- e;
  s.depth <- s.depth + 1

(* Innermost first, as the findings print a stack. *)
let stack_names s = List.init s.depth (fun i -> s.entries.(s.depth - 1 - i).instance)

(* Index of the innermost entry for [name] at or below [i], or -1. *)
let rec innermost s name i =
  if i < 0 || String.equal s.entries.(i).instance name then i
  else innermost s name (i - 1)

let edge_seen src dst = dst.id < Array.length src.after && src.after.(dst.id)

let add_edge t ~pid ~time s outer e =
  let len = Array.length outer.cls.after in
  if e.cls.id >= len then begin
    let grown = Array.make (max 8 (2 * (e.cls.id + 1))) false in
    Array.blit outer.cls.after 0 grown 0 len;
    outer.cls.after <- grown
  end;
  outer.cls.after.(e.cls.id) <- true;
  let key = (outer.cls.cname, e.cls.cname) in
  Hashtbl.add t.edges key
    {
      pid;
      time;
      held_instance = outer.instance;
      acquiring_instance = e.instance;
      held_stack = stack_names s;
    };
  t.edge_order <- key :: t.edge_order

(* Innermost outward, so a class held twice keeps its innermost
   witness. *)
let rec note_edges t ~pid ~time s e i =
  if i >= 0 then begin
    let outer = s.entries.(i) in
    if not (edge_seen outer.cls e.cls) then add_edge t ~pid ~time s outer e;
    note_edges t ~pid ~time s e (i - 1)
  end

let on_acquire t ~pid ~time ~name ~mode =
  let n = intern t name in
  let e = match mode with Mutex -> n.as_mutex | Read -> n.as_read | Write -> n.as_write in
  let s = own_stack t pid in
  if innermost s name (s.depth - 1) >= 0 then
    t.immediate <-
      Finding.make ~severity:Finding.Error ~check:"lockdep"
        ~code:"double-acquire"
        ~message:
          (Printf.sprintf "pid %d acquires %s%s while already holding it" pid
             name (mode_label mode))
        ~witness:
          [
            Printf.sprintf "t=%g pid=%d held [%s] -> acquiring %s" time pid
              (String.concat "; " (stack_names s))
              name;
          ]
        ()
      :: t.immediate;
  note_edges t ~pid ~time s e (s.depth - 1);
  push s e

(* Releases the innermost entry for [name]; popping the top of the
   stack, the common case, moves nothing. *)
let on_release t ~pid ~time ~name ~mode =
  let s = held_stack t pid in
  let i = innermost s name (s.depth - 1) in
  if i >= 0 then begin
    if i < s.depth - 1 then Array.blit s.entries (i + 1) s.entries i (s.depth - 1 - i);
    s.depth <- s.depth - 1
  end
  else
    t.immediate <-
      Finding.make ~severity:Finding.Warning ~check:"lockdep"
        ~code:"release-not-held"
        ~message:
          (Printf.sprintf "pid %d releases %s%s which it does not hold" pid
             name (mode_label mode))
        ~witness:
          [
            Printf.sprintf "t=%g pid=%d held [%s]" time pid
              (String.concat "; " (stack_names s));
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
  let leaks = ref [] in
  let note pid s =
    for i = 0 to s.depth - 1 do
      let e = s.entries.(i) in
      leaks :=
        Finding.make ~severity:Finding.Warning ~check:"lockdep"
          ~code:"held-at-drain"
          ~message:
            (Printf.sprintf
               "pid %d still holds %s%s (class %s) when the engine drained"
               pid e.instance (mode_label e.mode) e.cls.cname)
          ()
        :: !leaks
    done
  in
  Hashtbl.iter note t.stacks;
  List.sort (fun (a : Finding.t) b -> String.compare a.message b.message) !leaks

(* [drained] should be true only when the engine ran out of events: a
   run stopped early by a predicate legitimately leaves locks held. *)
let finish ?(drained = true) t =
  List.rev t.immediate
  @ (if drained then leak_findings t else [])
  @ cycle_findings t
