type t = {
  engine : Engine.t;
  clock : float array;  (* [Engine.clock engine], read in place *)
  name : string;
  mutable readers : int;
  mutable writer : bool;
  (* Parked acquirers in arrival order, each ticket shifted left by one
     with the low bit set for a writer. *)
  queue : Fifo.t;
  mutable queued_writers : int;
  wait : float array;  (* scratch a wait is computed into, as in Lock *)
  wait_stats : Ksurf_util.Welford.t;
}

let create ~engine ~name =
  {
    engine;
    clock = Engine.clock engine;
    name;
    readers = 0;
    writer = false;
    queue = Fifo.create ();
    queued_writers = 0;
    wait = [| 0.0 |];
    wait_stats = Ksurf_util.Welford.create ();
  }

let readers t = t.readers

(* Inlined, so the start time stays an unboxed local. *)
let[@inline] record_wait t start =
  t.wait.(0) <- t.clock.(0) -. start;
  Ksurf_util.Welford.add_cell t.wait_stats t.wait

(* Queue the caller's ticket, tagged as a writer or not, and park. *)
let wait_in_queue t ~write =
  let ticket = Engine.ticket t.engine lsl 1 in
  if write then begin
    t.queued_writers <- t.queued_writers + 1;
    Fifo.push t.queue (ticket lor 1)
  end
  else Fifo.push t.queue ticket;
  Engine.park t.engine

(* The acquire payloads, built once (see Lock). *)
let read_uncontended = Engine.Read_acquire { contended = false }
let read_contended = Engine.Read_acquire { contended = true }
let write_uncontended = Engine.Write_acquire { contended = false }
let write_contended = Engine.Write_acquire { contended = true }

(* A queued writer blocks new readers (writer preference), preventing
   writer starvation under read-heavy load.  Like Lock, probe events
   fire at intent time, before blocking. *)
let acquire_read t =
  let start = t.clock.(0) in
  let granted = (not t.writer) && t.queued_writers = 0 in
  if Engine.observed t.engine then
    Engine.emit_sync t.engine ~name:t.name
      (if granted then read_uncontended else read_contended);
  if granted then t.readers <- t.readers + 1 else wait_in_queue t ~write:false;
  record_wait t start

let acquire_write t =
  let start = t.clock.(0) in
  let granted = (not t.writer) && t.readers = 0 && Fifo.is_empty t.queue in
  if Engine.observed t.engine then
    Engine.emit_sync t.engine ~name:t.name
      (if granted then write_uncontended else write_contended);
  if granted then t.writer <- true else wait_in_queue t ~write:true;
  record_wait t start

let is_writer tagged = tagged land 1 = 1

(* Grant the lock to as many queued waiters as compatible: either the
   front writer alone, or the maximal prefix of readers. *)
let drain t =
  if t.writer || t.readers > 0 || Fifo.is_empty t.queue then ()
  else if is_writer (Fifo.peek t.queue) then begin
    let tagged = Fifo.pop t.queue in
    t.queued_writers <- t.queued_writers - 1;
    t.writer <- true;
    Engine.wake_ticket t.engine (tagged lsr 1)
  end
  else
    while (not (Fifo.is_empty t.queue)) && not (is_writer (Fifo.peek t.queue)) do
      t.readers <- t.readers + 1;
      Engine.wake_ticket t.engine (Fifo.pop t.queue lsr 1)
    done

let release_read t =
  if Engine.observed t.engine then
    Engine.emit_sync t.engine ~name:t.name Engine.Read_release;
  if t.readers <= 0 then
    invalid_arg
      (Printf.sprintf "Rwlock.release_read: %s has no readers" t.name);
  t.readers <- t.readers - 1;
  drain t

let release_write t =
  if Engine.observed t.engine then
    Engine.emit_sync t.engine ~name:t.name Engine.Write_release;
  if not t.writer then
    invalid_arg
      (Printf.sprintf "Rwlock.release_write: %s has no writer" t.name);
  t.writer <- false;
  drain t
