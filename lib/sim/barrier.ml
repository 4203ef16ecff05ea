type t = {
  engine : Engine.t;
  name : string;
  mutable parties : int;
  mutable arrived : int;
  mutable generation : int;
  waiters : (unit -> unit) Queue.t;
  enqueue : (unit -> unit) -> unit;  (* built once, as in Lock *)
}

let create ~engine ~name ~parties =
  if parties < 1 then invalid_arg "Barrier.create: parties must be >= 1";
  let waiters = Queue.create () in
  {
    engine;
    name;
    parties;
    arrived = 0;
    generation = 0;
    waiters;
    enqueue = (fun wake -> Queue.push wake waiters);
  }

let generation t = t.generation
let waiting t = t.arrived
let parties t = t.parties

let emit t op =
  Engine.emit t.engine
    (Engine.Sync
       {
         now = Engine.now t.engine;
         pid = Engine.current_pid t.engine;
         name = t.name;
         op;
       })

let arrive t =
  t.arrived <- t.arrived + 1;
  if Engine.observed t.engine then
    emit t
      (Engine.Barrier_arrive
         { generation = t.generation; arrived = t.arrived; parties = t.parties });
  if t.arrived < t.parties then Engine.suspend t.enqueue
  else begin
    (* Last arrival: release everyone, start a new generation. *)
    t.arrived <- 0;
    t.generation <- t.generation + 1;
    if Engine.observed t.engine then
      emit t (Engine.Barrier_release { generation = t.generation });
    Queue.iter (fun wake -> wake ()) t.waiters;
    Queue.clear t.waiters
  end

let depart t =
  if t.parties <= 1 then
    invalid_arg
      (Printf.sprintf "Barrier.depart: %s would have no parties left" t.name);
  t.parties <- t.parties - 1;
  if Engine.observed t.engine then
    emit t
      (Engine.Barrier_depart { generation = t.generation; parties = t.parties });
  (* The departing party may have been the only arrival the current
     generation was still waiting for: release it now so survivors do
     not deadlock.  Identical to [arrive]'s last-arrival branch, minus
     the extra arrival. *)
  if t.arrived >= t.parties then begin
    t.arrived <- 0;
    t.generation <- t.generation + 1;
    if Engine.observed t.engine then
      emit t (Engine.Barrier_release { generation = t.generation });
    Queue.iter (fun wake -> wake ()) t.waiters;
    Queue.clear t.waiters
  end

let arrive_with_cost t ~per_party_cost =
  arrive t;
  if per_party_cost > 0.0 then
    (* Dissemination-style barrier: log2(parties) network rounds. *)
    let rounds = Float.log (float_of_int t.parties) /. Float.log 2.0 in
    (Engine.delay_cell t.engine).(0) <- per_party_cost *. Float.max 1.0 (Float.ceil rounds);
    Engine.delay_from_cell t.engine
