type t = {
  engine : Engine.t;
  name : string;
  mutable held : bool;
  mutable acquired_at : float;
  waiters : (unit -> unit) Queue.t;
  (* [Queue.push wake waiters], built once here so a contended acquire
     does not allocate a fresh closure for [Engine.suspend]. *)
  enqueue : (unit -> unit) -> unit;
  wait_stats : Ksurf_util.Welford.t;
  hold_stats : Ksurf_util.Welford.t;
  mutable acquisitions : int;
  mutable contended : int;
}

let create ~engine ~name =
  let waiters = Queue.create () in
  {
    engine;
    name;
    held = false;
    acquired_at = 0.0;
    waiters;
    enqueue = (fun wake -> Queue.push wake waiters);
    wait_stats = Ksurf_util.Welford.create ();
    hold_stats = Ksurf_util.Welford.create ();
    acquisitions = 0;
    contended = 0;
  }

let held t = t.held
let name t = t.name
let acquisitions t = t.acquisitions
let contended_acquisitions t = t.contended
let wait_stats t = t.wait_stats
let hold_stats t = t.hold_stats

(* Probe events are emitted at *intent* time — before any blocking — so
   a lock-order analyzer sees the acquisition order even when a request
   deadlocks and never completes (exactly what it exists to catch). *)
let emit t op =
  Engine.emit t.engine
    (Engine.Sync
       {
         now = Engine.now t.engine;
         pid = Engine.current_pid t.engine;
         name = t.name;
         op;
       })

(* The two acquire payloads, built once: an observed acquire picks one
   instead of allocating its own. *)
let acquire_uncontended = Engine.Acquire { contended = false }
let acquire_contended = Engine.Acquire { contended = true }

let acquire t =
  let start = Engine.now t.engine in
  if Engine.observed t.engine then
    emit t (if t.held then acquire_contended else acquire_uncontended);
  if not t.held then t.held <- true
  else begin
    t.contended <- t.contended + 1;
    Engine.suspend t.enqueue
    (* On resume the releaser has transferred ownership to us:
       [t.held] is still true and we are the owner. *)
  end;
  t.acquisitions <- t.acquisitions + 1;
  t.acquired_at <- Engine.now t.engine;
  Ksurf_util.Welford.add_span t.wait_stats ~since:start ~until:(Engine.now t.engine);
  (* Fault-injection point: the hook runs while we own the lock, so any
     [Engine.delay] it performs stretches the critical section
     (lock-holder preemption).  [acquired_at] is already set, keeping
     the stretch inside the recorded hold time. *)
  match Engine.acquire_hook t.engine with
  | None -> ()
  | Some hook -> hook Engine.Lock_site t.name

let release t =
  if Engine.observed t.engine then emit t Engine.Release;
  if not t.held then
    invalid_arg (Printf.sprintf "Lock.release: %s is not held" t.name);
  Ksurf_util.Welford.add_span t.hold_stats ~since:t.acquired_at
    ~until:(Engine.now t.engine);
  match Queue.take_opt t.waiters with
  | Some wake ->
      (* Ownership transfer: the lock stays held for the waiter. *)
      t.acquired_at <- Engine.now t.engine;
      wake ()
  | None -> t.held <- false

let with_hold t d =
  acquire t;
  Engine.delay d;
  release t

(* "k3.inode[7]" -> class "inode": strip the kernel-instance prefix and
   the stripe index so striping and multi-instance deployments do not
   multiply classes. *)
let class_of_name name =
  let after_prefix =
    match String.index_opt name '.' with
    | Some dot when dot >= 2 && name.[0] = 'k' ->
        let digits = ref true in
        String.iteri
          (fun i c ->
            if i > 0 && i < dot && not ('0' <= c && c <= '9') then digits := false)
          name;
        if !digits then String.sub name (dot + 1) (String.length name - dot - 1)
        else name
    | _ -> name
  in
  match String.index_opt after_prefix '[' with
  | Some bracket
    when String.length after_prefix > 0
         && after_prefix.[String.length after_prefix - 1] = ']' ->
      String.sub after_prefix 0 bracket
  | _ -> after_prefix
