type t = {
  engine : Engine.t;
  clock : float array;  (* [Engine.clock engine], read in place *)
  name : string;
  mutable held : bool;
  (* [cells.(0)] is the scratch a wait or a hold is computed into for
     [Welford.add_cell]; [cells.(1)] is the current hold's start.
     Neither boxes a time. *)
  cells : float array;
  waiters : Fifo.t;  (* parked acquirers' tickets *)
  wait_stats : Ksurf_util.Welford.t;
  hold_stats : Ksurf_util.Welford.t;
  mutable acquisitions : int;
  mutable contended : int;
}

let create ~engine ~name =
  {
    engine;
    clock = Engine.clock engine;
    name;
    held = false;
    cells = [| 0.0; 0.0 |];
    waiters = Fifo.create ();
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

(* The two acquire payloads, built once: an observed acquire picks one
   instead of allocating its own. *)
let acquire_uncontended = Engine.Acquire { contended = false }
let acquire_contended = Engine.Acquire { contended = true }

(* Probe events are emitted at *intent* time — before any blocking — so
   a lock-order analyzer sees the acquisition order even when a request
   deadlocks and never completes (exactly what it exists to catch). *)
let acquire t =
  (* An unboxed local, kept on the process's stack across the park. *)
  let start = t.clock.(0) in
  if Engine.observed t.engine then
    Engine.emit_sync t.engine ~name:t.name
      (if t.held then acquire_contended else acquire_uncontended);
  if not t.held then t.held <- true
  else begin
    t.contended <- t.contended + 1;
    Fifo.push t.waiters (Engine.ticket t.engine);
    Engine.park t.engine
    (* On resume the releaser has transferred ownership to us:
       [t.held] is still true and we are the owner. *)
  end;
  t.acquisitions <- t.acquisitions + 1;
  t.cells.(1) <- t.clock.(0);
  t.cells.(0) <- t.clock.(0) -. start;
  Ksurf_util.Welford.add_cell t.wait_stats t.cells;
  (* Fault-injection point: the hook runs while we own the lock, so any
     [Engine.delay] it performs stretches the critical section
     (lock-holder preemption).  The hold's start is already set, keeping
     the stretch inside the recorded hold time. *)
  match Engine.acquire_hook t.engine with
  | None -> ()
  | Some hook -> hook Engine.Lock_site t.name

let release t =
  if Engine.observed t.engine then
    Engine.emit_sync t.engine ~name:t.name Engine.Release;
  if not t.held then
    invalid_arg (Printf.sprintf "Lock.release: %s is not held" t.name);
  t.cells.(0) <- t.clock.(0) -. t.cells.(1);
  Ksurf_util.Welford.add_cell t.hold_stats t.cells;
  if Fifo.is_empty t.waiters then t.held <- false
  else begin
    (* Ownership transfer: the lock stays held for the waiter. *)
    t.cells.(1) <- t.clock.(0);
    Engine.wake_ticket t.engine (Fifo.pop t.waiters)
  end

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
