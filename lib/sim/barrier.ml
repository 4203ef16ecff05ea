type t = {
  engine : Engine.t;
  name : string;
  mutable parties : int;
  mutable arrived : int;
  mutable generation : int;
  waiters : Fifo.t;  (* parked parties' tickets *)
  (* One payload block per kind, filled on each observed event of its
     kind, as the engine fills its [Sync] block. *)
  ev_arrive : Engine.sync_op;
  ev_release : Engine.sync_op;
  ev_depart : Engine.sync_op;
}

let create ~engine ~name ~parties =
  if parties < 1 then invalid_arg "Barrier.create: parties must be >= 1";
  {
    engine;
    name;
    parties;
    arrived = 0;
    generation = 0;
    waiters = Fifo.create ();
    ev_arrive = Engine.Barrier_arrive { generation = 0; arrived = 0; parties = 0 };
    ev_release = Engine.Barrier_release { generation = 0 };
    ev_depart = Engine.Barrier_depart { generation = 0; parties = 0 };
  }

let generation t = t.generation
let waiting t = t.arrived
let parties t = t.parties

(* Release everyone parked on this generation, in arrival order, and
   start the next one. *)
let release_generation t =
  t.arrived <- 0;
  t.generation <- t.generation + 1;
  if Engine.observed t.engine then begin
    (match t.ev_release with
    | Engine.Barrier_release r -> r.generation <- t.generation
    | _ -> ());
    Engine.emit_sync t.engine ~name:t.name t.ev_release
  end;
  while not (Fifo.is_empty t.waiters) do
    Engine.wake_ticket t.engine (Fifo.pop t.waiters)
  done

let arrive t =
  t.arrived <- t.arrived + 1;
  if Engine.observed t.engine then begin
    (match t.ev_arrive with
    | Engine.Barrier_arrive r ->
        r.generation <- t.generation;
        r.arrived <- t.arrived;
        r.parties <- t.parties
    | _ -> ());
    Engine.emit_sync t.engine ~name:t.name t.ev_arrive
  end;
  if t.arrived < t.parties then begin
    Fifo.push t.waiters (Engine.ticket t.engine);
    Engine.park t.engine
  end
  else (* last arrival *)
    release_generation t

let depart t =
  if t.parties <= 1 then
    invalid_arg
      (Printf.sprintf "Barrier.depart: %s would have no parties left" t.name);
  t.parties <- t.parties - 1;
  if Engine.observed t.engine then begin
    (match t.ev_depart with
    | Engine.Barrier_depart r ->
        r.generation <- t.generation;
        r.parties <- t.parties
    | _ -> ());
    Engine.emit_sync t.engine ~name:t.name t.ev_depart
  end;
  (* The departing party may have been the only arrival the current
     generation was still waiting for: release it now so survivors do
     not deadlock. *)
  if t.arrived >= t.parties then release_generation t

let arrive_with_cost t ~per_party_cost =
  arrive t;
  if per_party_cost > 0.0 then
    (* Dissemination-style barrier: log2(parties) network rounds. *)
    let rounds = Float.log (float_of_int t.parties) /. Float.log 2.0 in
    (Engine.delay_cell t.engine).(0) <- per_party_cost *. Float.max 1.0 (Float.ceil rounds);
    Engine.delay_from_cell t.engine
