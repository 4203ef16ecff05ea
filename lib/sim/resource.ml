type t = {
  engine : Engine.t;
  clock : float array;  (* [Engine.clock engine], read in place *)
  name : string;
  capacity : int;
  mutable in_use : int;
  waiters : Fifo.t;  (* parked acquirers' tickets *)
  wait : float array;  (* scratch a wait is computed into, as in Lock *)
  wait_stats : Ksurf_util.Welford.t;
  mutable served : int;
}

let create ~engine ~name ~capacity =
  if capacity < 1 then invalid_arg "Resource.create: capacity must be >= 1";
  {
    engine;
    clock = Engine.clock engine;
    name;
    capacity;
    in_use = 0;
    waiters = Fifo.create ();
    wait = [| 0.0 |];
    wait_stats = Ksurf_util.Welford.create ();
    served = 0;
  }

let in_use t = t.in_use
let served t = t.served

let acquire t =
  let start = t.clock.(0) in
  if t.in_use < t.capacity then t.in_use <- t.in_use + 1
  else begin
    Fifo.push t.waiters (Engine.ticket t.engine);
    Engine.park t.engine
  end;
  (* On wake the releaser has transferred the slot to us. *)
  t.served <- t.served + 1;
  t.wait.(0) <- t.clock.(0) -. start;
  Ksurf_util.Welford.add_cell t.wait_stats t.wait;
  (* Fault-injection point: a hook delay here models a stalled device
     channel — the slot is occupied for longer. *)
  match Engine.acquire_hook t.engine with
  | None -> ()
  | Some hook -> hook Engine.Resource_site t.name

let release t =
  if t.in_use <= 0 then
    invalid_arg (Printf.sprintf "Resource.release: %s is idle" t.name);
  if Fifo.is_empty t.waiters then t.in_use <- t.in_use - 1
  else (* slot transfers: in_use unchanged *)
    Engine.wake_ticket t.engine (Fifo.pop t.waiters)
