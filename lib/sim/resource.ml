type t = {
  engine : Engine.t;
  name : string;
  capacity : int;
  mutable in_use : int;
  waiters : (unit -> unit) Queue.t;
  enqueue : (unit -> unit) -> unit;  (* as in Lock: built once *)
  wait_stats : Ksurf_util.Welford.t;
  mutable served : int;
}

let create ~engine ~name ~capacity =
  if capacity < 1 then invalid_arg "Resource.create: capacity must be >= 1";
  let waiters = Queue.create () in
  {
    engine;
    name;
    capacity;
    in_use = 0;
    waiters;
    enqueue = (fun wake -> Queue.push wake waiters);
    wait_stats = Ksurf_util.Welford.create ();
    served = 0;
  }

let in_use t = t.in_use
let capacity t = t.capacity
let queue_length t = Queue.length t.waiters
let wait_stats t = t.wait_stats
let served t = t.served

let acquire t =
  let start = Engine.now t.engine in
  if t.in_use < t.capacity then t.in_use <- t.in_use + 1
  else Engine.suspend t.enqueue;
  (* On wake the releaser has transferred the slot to us. *)
  t.served <- t.served + 1;
  Ksurf_util.Welford.add_span t.wait_stats ~since:start ~until:(Engine.now t.engine);
  (* Fault-injection point: a hook delay here models a stalled device
     channel — the slot is occupied for longer. *)
  match Engine.acquire_hook t.engine with
  | None -> ()
  | Some hook -> hook Engine.Resource_site t.name

let release t =
  if t.in_use <= 0 then
    invalid_arg (Printf.sprintf "Resource.release: %s is idle" t.name);
  match Queue.take_opt t.waiters with
  | Some wake -> wake () (* slot transfers: in_use unchanged *)
  | None -> t.in_use <- t.in_use - 1

let serve t d =
  acquire t;
  Engine.delay d;
  release t
