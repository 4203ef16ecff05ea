type waiter = Read of (unit -> unit) | Write of (unit -> unit)

type t = {
  engine : Engine.t;
  name : string;
  mutable readers : int;
  mutable writer : bool;
  queue : waiter Queue.t;
  (* The two waiter-enqueue functions, built once (see Lock). *)
  enqueue_read : (unit -> unit) -> unit;
  enqueue_write : (unit -> unit) -> unit;
  wait_stats : Ksurf_util.Welford.t;
}

let create ~engine ~name =
  let queue = Queue.create () in
  {
    engine;
    name;
    readers = 0;
    writer = false;
    queue;
    enqueue_read = (fun wake -> Queue.push (Read wake) queue);
    enqueue_write = (fun wake -> Queue.push (Write wake) queue);
    wait_stats = Ksurf_util.Welford.create ();
  }

let readers t = t.readers
let writer_held t = t.writer
let wait_stats t = t.wait_stats

let record_wait t start =
  Ksurf_util.Welford.add_span t.wait_stats ~since:start ~until:(Engine.now t.engine)

(* Like Lock, probe events fire at intent time, before blocking. *)
let emit t op =
  Engine.emit t.engine
    (Engine.Sync
       {
         now = Engine.now t.engine;
         pid = Engine.current_pid t.engine;
         name = t.name;
         op;
       })

(* A write waiter anywhere in the queue blocks new readers (writer
   preference), preventing writer starvation under read-heavy load. *)
let write_waiting t =
  Queue.fold (fun acc w -> acc || match w with Write _ -> true | Read _ -> false)
    false t.queue

let acquire_read t =
  let start = Engine.now t.engine in
  let granted = (not t.writer) && not (write_waiting t) in
  if Engine.observed t.engine then
    emit t (Engine.Read_acquire { contended = not granted });
  if granted then t.readers <- t.readers + 1
  else Engine.suspend t.enqueue_read;
  record_wait t start

let acquire_write t =
  let start = Engine.now t.engine in
  let granted = (not t.writer) && t.readers = 0 && Queue.is_empty t.queue in
  if Engine.observed t.engine then
    emit t (Engine.Write_acquire { contended = not granted });
  if granted then t.writer <- true
  else Engine.suspend t.enqueue_write;
  record_wait t start

(* Grant the lock to as many queued waiters as compatible: either the
   front writer alone, or the maximal prefix of readers. *)
let drain t =
  if t.writer || t.readers > 0 then ()
  else
    match Queue.peek_opt t.queue with
    | None -> ()
    | Some (Write _) -> (
        match Queue.pop t.queue with
        | Write wake ->
            t.writer <- true;
            wake ()
        | Read _ -> assert false)
    | Some (Read _) ->
        let rec grant_reads () =
          match Queue.peek_opt t.queue with
          | Some (Read _) -> (
              match Queue.pop t.queue with
              | Read wake ->
                  t.readers <- t.readers + 1;
                  wake ();
                  grant_reads ()
              | Write _ -> assert false)
          | Some (Write _) | None -> ()
        in
        grant_reads ()

let release_read t =
  if Engine.observed t.engine then emit t Engine.Read_release;
  if t.readers <= 0 then
    invalid_arg
      (Printf.sprintf "Rwlock.release_read: %s has no readers" t.name);
  t.readers <- t.readers - 1;
  drain t

let release_write t =
  if Engine.observed t.engine then emit t Engine.Write_release;
  if not t.writer then
    invalid_arg
      (Printf.sprintf "Rwlock.release_write: %s has no writer" t.name);
  t.writer <- false;
  drain t

let with_read t d =
  acquire_read t;
  Engine.delay d;
  release_read t

let with_write t d =
  acquire_write t;
  Engine.delay d;
  release_write t
