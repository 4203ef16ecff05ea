(* What a traced pass records: spans around every public library call
   the benchmark makes, and per-engine counts from a probe attached
   through [Engine.add_probe].  Untraced passes carry neither — a
   [None] tracer makes [span] a direct call. *)

module Engine = Ksurf.Engine

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  start_ns : int64;
  stop_ns : int64;
  domain : int;
}

type t = { lock : Mutex.t; mutable spans : span list; next_id : int Atomic.t }

let create () = { lock = Mutex.create (); spans = []; next_id = Atomic.make 0 }

(* The innermost open span on this domain.  Sweep cells run on pool
   workers, whose stack starts empty, so callers pass [~parent]
   explicitly across [Pool.map]. *)
let current : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)
let current_id () = Domain.DLS.get current

let span tracer ?parent name f =
  match tracer with
  | None -> f ()
  | Some t ->
      let id = Atomic.fetch_and_add t.next_id 1 + 1 in
      let parent = match parent with Some p -> p | None -> current_id () in
      let saved = current_id () in
      Domain.DLS.set current id;
      let start_ns = Ksurf.Clock.monotonic_ns () in
      Fun.protect
        ~finally:(fun () ->
          let stop_ns = Ksurf.Clock.monotonic_ns () in
          Domain.DLS.set current saved;
          let s =
            { id; parent; name; start_ns; stop_ns; domain = (Domain.self () :> int) }
          in
          Mutex.protect t.lock (fun () -> t.spans <- s :: t.spans))
        f

let seconds_of a b = Int64.to_float (Int64.sub b a) /. 1e9
let duration s = seconds_of s.start_ns s.stop_ns

(* Self time: the span's duration minus the part of it its children
   cover.  Children of a sweep span overlap each other (one per pool
   domain), so coverage is the union of their intervals, not the sum. *)
let self_seconds spans s =
  let children =
    List.filter_map
      (fun c ->
        if c.parent = s.id then
          Some (max c.start_ns s.start_ns, min c.stop_ns s.stop_ns)
        else None)
      spans
    |> List.sort compare
  in
  let covered, last =
    List.fold_left
      (fun (acc, (cur_a, cur_b)) (a, b) ->
        if a > cur_b then (acc +. seconds_of cur_a cur_b, (a, b))
        else (acc, (cur_a, max cur_b b)))
      (0.0, (s.start_ns, s.start_ns))
      children
  in
  let covered = covered +. seconds_of (fst last) (snd last) in
  max 0.0 (duration s -. covered)

let spans t = List.rev t.spans

(* Per span name: how many, total seconds, self seconds. *)
let summary t =
  let all = spans t in
  let table = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let n, total, self =
        Option.value (Hashtbl.find_opt table s.name) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace table s.name
        (n + 1, total +. duration s, self +. self_seconds all s))
    all;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) table []
  |> List.sort compare

let total_seconds t name =
  match List.assoc_opt name (summary t) with Some (_, total, _) -> total | None -> 0.0

let to_json t =
  let all = spans t in
  let origin =
    List.fold_left (fun acc s -> min acc s.start_ns) Int64.max_int all
  in
  let us a b = Json.Num (Int64.to_float (Int64.sub b a) /. 1e3) in
  Json.Obj
    [
      ( "spans",
        Json.Arr
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("id", Json.Num (float s.id));
                   ("parent", Json.Num (float s.parent));
                   ("name", Json.Str s.name);
                   ("domain", Json.Num (float s.domain));
                   ("start_us", us origin s.start_ns);
                   ("dur_us", us s.start_ns s.stop_ns);
                   ("self_us", Json.Num (self_seconds all s *. 1e6));
                 ])
             all) );
      ( "by_name",
        Json.Obj
          (List.map
             (fun (name, (n, total, self)) ->
               ( name,
                 Json.Obj
                   [
                     ("count", Json.Num (float n));
                     ("total_s", Json.Num total);
                     ("self_s", Json.Num self);
                   ] ))
             (summary t)) );
    ]

(* ------------------------------------------------------------------ *)
(* Probe counts: one record per engine-owning cell, so cells running on
   different pool domains never share a counter; [merge] sums them
   after the sweep. *)

type counts = {
  mutable probe_events : int;
  mutable scheduled : int;
  mutable suspends : int;
  mutable acquires : int;
  mutable contended : int;
  mutable barrier_arrivals : int;
  mutable wait_vns : float;
      (** virtual time from a contended acquire to the wake that grants it *)
  by_lock : (string, int array) Hashtbl.t;  (** name -> [|acquires; contended|] *)
  waiting : (int, float) Hashtbl.t;  (** pid -> contended-acquire time *)
}

let counts () =
  {
    probe_events = 0;
    scheduled = 0;
    suspends = 0;
    acquires = 0;
    contended = 0;
    barrier_arrivals = 0;
    wait_vns = 0.0;
    by_lock = Hashtbl.create 64;
    waiting = Hashtbl.create 64;
  }

let acquire c ~name ~now ~pid contended =
  c.acquires <- c.acquires + 1;
  let slot =
    match Hashtbl.find_opt c.by_lock name with
    | Some a -> a
    | None ->
        let a = [| 0; 0 |] in
        Hashtbl.replace c.by_lock name a;
        a
  in
  slot.(0) <- slot.(0) + 1;
  if contended then begin
    c.contended <- c.contended + 1;
    slot.(1) <- slot.(1) + 1;
    Hashtbl.replace c.waiting pid now
  end

(* A contended acquirer suspends at its intent time and is woken when
   ownership reaches it, so its wait is the gap to its next [Woken]. *)
let on_event c (info : Engine.event_info) =
  c.probe_events <- c.probe_events + 1;
  match info with
  | Engine.Scheduled _ -> c.scheduled <- c.scheduled + 1
  | Engine.Suspended _ -> c.suspends <- c.suspends + 1
  | Engine.Woken { now; pid; _ } -> (
      match Hashtbl.find_opt c.waiting pid with
      | Some since ->
          c.wait_vns <- c.wait_vns +. (now -. since);
          Hashtbl.remove c.waiting pid
      | None -> ())
  | Engine.Sync { name; op; now; pid } -> (
      match op with
      | Engine.Acquire { contended }
      | Engine.Read_acquire { contended }
      | Engine.Write_acquire { contended } ->
          acquire c ~name ~now ~pid contended
      | Engine.Barrier_arrive _ -> c.barrier_arrivals <- c.barrier_arrivals + 1
      | _ -> ())
  | _ -> ()

let merge = function
  | [] -> counts ()
  | l ->
      let m = counts () in
      List.iter
        (fun c ->
          m.probe_events <- m.probe_events + c.probe_events;
          m.scheduled <- m.scheduled + c.scheduled;
          m.suspends <- m.suspends + c.suspends;
          m.acquires <- m.acquires + c.acquires;
          m.contended <- m.contended + c.contended;
          m.barrier_arrivals <- m.barrier_arrivals + c.barrier_arrivals;
          m.wait_vns <- m.wait_vns +. c.wait_vns;
          Hashtbl.iter
            (fun name a ->
              let slot =
                match Hashtbl.find_opt m.by_lock name with
                | Some s -> s
                | None ->
                    let s = [| 0; 0 |] in
                    Hashtbl.replace m.by_lock name s;
                    s
              in
              slot.(0) <- slot.(0) + a.(0);
              slot.(1) <- slot.(1) + a.(1))
            c.by_lock)
        l;
      m

(* Contended fraction of one lock class ("audit", "journal", ...),
   stripes and kernel-instance prefixes folded as lockdep folds them. *)
let class_contended_frac c klass =
  let acq, cont =
    Hashtbl.fold
      (fun name a (acq, cont) ->
        if Ksurf.Analysis.Lockdep.class_of_instance name = klass then
          (acq + a.(0), cont + a.(1))
        else (acq, cont))
      c.by_lock (0, 0)
  in
  if acq = 0 then 0.0 else float cont /. float acq
