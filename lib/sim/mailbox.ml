type 'a t = {
  engine : Engine.t;
  name : string;
  queue : 'a Queue.t;  (* messages no consumer has been woken for *)
  (* Messages handed to woken consumers that have not resumed yet, in
     wake order.  Woken consumers resume in that same order (each wake
     is scheduled at the current time under the next sequence number),
     so each takes the message it was woken for, even if a newcomer's
     [recv] runs in between. *)
  handed : 'a Queue.t;
  consumers : Fifo.t;  (* parked consumers' tickets *)
  mutable sent : int;
}

let create ~engine ~name =
  {
    engine;
    name;
    queue = Queue.create ();
    handed = Queue.create ();
    consumers = Fifo.create ();
    sent = 0;
  }

let send t msg =
  t.sent <- t.sent + 1;
  if Fifo.is_empty t.consumers then Queue.push msg t.queue
  else begin
    Queue.push msg t.handed;
    Engine.wake_ticket t.engine (Fifo.pop t.consumers)
  end

let recv t =
  if not (Queue.is_empty t.queue) then Queue.take t.queue
  else begin
    Fifo.push t.consumers (Engine.ticket t.engine);
    Engine.park t.engine;
    if Queue.is_empty t.handed then failwith (t.name ^ ": woken without a message")
    else Queue.take t.handed
  end

let length t = Queue.length t.queue
let sent t = t.sent
