type t = {
  (* The clock: one unboxed float, read in place by the sync primitives
     and the kernel through [clock], so moving it or reading it boxes
     nothing.  [now] boxes it lazily, at most once per clock move:
     [now_box] holds that box while [now_fresh] says it is current. *)
  clock : float array;
  mutable now_box : float;
  mutable now_fresh : bool;
  (* Where the run loop reads the next event's time, unboxed. *)
  next_time : float array;
  mutable seq : int;
  (* The event queue, split by payload so that no event needs a job
     wrapper: delay expiries and wakes queue the suspended continuation
     itself, spawns queue their thunk.  Both heaps draw [seq] from the
     one counter above, and the run loop takes whichever top comes
     first by (time, seq), so events fire in exactly the order one
     heap would give them.  The executing pid travels in the heaps'
     int channel, so no per-event record ties (pid, payload) either. *)
  conts : (unit, unit) Effect.Deep.continuation Heap.t;
  thunks : (unit -> unit) Heap.t;
  root_rng : Ksurf_util.Prng.t;
  mutable executed : int;
  (* Observer layer: analyzers (lockdep, determinism, invariants)
     register probes; the hot path only pays when one is attached.
     The engine emits its frequent kinds through one block each, built
     here and overwritten by every emit of that kind, so an observed
     event allocates only the float boxes its fields need.  The blocks
     are per engine: engines on other domains fill their own. *)
  mutable probes : (event_info -> unit) list;
  ev_scheduled : event_info;
  ev_executed : event_info;
  ev_suspended : event_info;
  ev_woken : event_info;
  ev_sync : event_info;
  (* Process identity: every [spawn] gets a fresh pid, and continuations
     (delay/suspend wake-ups) run under the pid that created them, so
     probes can attribute lock operations to logical processes. *)
  mutable cur_pid : int;
  mutable next_pid : int;
  mutable next_token : int;
  (* Fault-injection layer: kfault installs a hook that runs in process
     context right after a Lock/Resource acquisition succeeds, so it may
     stretch the critical section with [delay].  None (the default)
     costs one load on the acquire path. *)
  mutable acquire_hook : (acquire_site -> string -> unit) option;
  (* Closure-free effects.  [delay] writes its expiry into
     [delay_arg] (a float array, so the store does not box) and, unless
     it runs in place ([step_in_place]), performs the engine's one
     preallocated [delay_eff]; [park]
     performs [park_eff]; [suspend] parks its register function in
     [register] and performs [suspend_eff].  The handler record and the
     [Some] closures the effect handler returns are built once per
     engine, so neither effect nor a spawn allocates handler
     machinery. *)
  delay_arg : float array;
  delay_eff : unit Effect.t;
  park_eff : unit Effect.t;
  suspend_eff : unit Effect.t;
  mutable register : (unit -> unit) -> unit;
  on_delay : ((unit, unit) Effect.Deep.continuation -> unit) option;
  on_park : ((unit, unit) Effect.Deep.continuation -> unit) option;
  on_suspend : ((unit, unit) Effect.Deep.continuation -> unit) option;
  handler : (unit, unit) Effect.Deep.handler;
  (* Parking: every parked process holds a slot in a growable table of
     columns, and its continuation waits in [park_k] until a ticket
     naming (token, slot) wakes it.  Slot [i] is free when
     [park_token.(i)] is 0; freed slots go on the [park_free] stack.
     The same table names the processes that will never run again
     when the liveness watchdog aborts. *)
  mutable park_token : int array;
  mutable park_pid : int array;
  mutable park_since : float array;
  mutable park_k : (unit, unit) Effect.Deep.continuation array;
  mutable park_free : int array;
  mutable park_nfree : int;
  (* The running loop's bounds and watchdog, kept here so that a delay
     can do the loop's work itself ([step_in_place]): the [stop]
     predicate, the horizon [min until deadline] (neg_infinity outside
     a run, so no delay runs in place there), and the stall watchdog's
     last advancing time and count of events since.  [run] saves them
     on entry and restores them on exit. *)
  mutable run_stop : (unit -> bool) option;
  horizon : float array;
  stall_at : float array;
  mutable stalled : int;
}

and acquire_site = Lock_site | Resource_site

(* Probe events.  Synchronization primitives (lock.ml, rwlock.ml,
   barrier.ml) funnel their events through the engine so one
   [add_probe] observes a whole simulation; the types live here to
   avoid dependency cycles inside the library. *)
and event_info =
  | Scheduled of { mutable now : float; mutable at : float; mutable pid : int }
      (** an event was pushed on the heap, to run as [pid] *)
  | Executed of { mutable now : float; mutable pid : int }
      (** a heap event started executing *)
  | Suspended of { mutable now : float; mutable pid : int; mutable token : int }
      (** [pid] parked on a wait queue; [token] identifies the suspension *)
  | Woken of { mutable now : float; mutable pid : int; mutable token : int }
      (** suspension [token] was woken *)
  | Sync of {
      mutable now : float;
      mutable pid : int;
      mutable name : string;
      mutable op : sync_op;
    }
      (** a synchronization-primitive operation on primitive [name] *)
  | Injected of { now : float; pid : int; fault : string; magnitude : float }
      (** a fault injector (kfault) perturbed the simulation; [fault]
          names the mechanism, [magnitude] its size in natural units *)
  | Denied of { now : float; pid : int; syscall : string; enforced : bool }
      (** a specialization policy (kspec) rejected a system call;
          [enforced] distinguishes ENOSYS failures from audit-only logs *)
  | Rank_transition of {
      now : float;
      pid : int;
      rank : int;
      from_state : string;
      to_state : string;
      incident : int;
    }
      (** a failure detector (krecov) reclassified a monitored rank;
          [incident] groups the transitions of one crash/recovery episode *)

and sync_op =
  | Acquire of { contended : bool }
  | Release
  | Read_acquire of { contended : bool }
  | Read_release
  | Write_acquire of { contended : bool }
  | Write_release
  | Barrier_arrive of {
      mutable generation : int;
      mutable arrived : int;
      mutable parties : int;
    }
  | Barrier_release of { mutable generation : int }
  | Barrier_depart of { mutable generation : int; mutable parties : int }

exception Process_error of string * exn
exception Hung of string

(* The payload names the engine, so nested engines (e.g. per-node
   cluster simulations driven from a parent program) never handle each
   other's effects.  Each engine preallocates one value of each. *)
type _ Effect.t +=
  | Delay : t -> unit Effect.t
  | Park : t -> unit Effect.t
  | Suspend : t -> unit Effect.t

(* The engine whose handler is currently executing a process.  The
   ambient reference only serves the argumentless [delay]/[suspend]
   public API.  Domain-local, not global: independent engines running
   concurrently on worker domains (Ksurf_par sweep cells) must not
   clobber each other's ambient engine. *)
let current_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let get_current () = Domain.DLS.get current_key
let set_current v = Domain.DLS.set current_key v

let clock t = t.clock

(* The clock's box, made on the first read after the clock moved: every
   probe event, the invariant checker and the harnesses reading [now]
   within one event share it. *)
let now t =
  if not t.now_fresh then begin
    t.now_box <- t.clock.(0);
    t.now_fresh <- true
  end;
  t.now_box

(* The box stays current while the time keeps its bits, so events
   that run at an unchanged time share it.  [<>] alone would keep a
   0.0 box for -0.0, so zeros also compare signs; the clock is never
   NaN. *)
let[@inline] set_clock t time =
  let old = t.clock.(0) in
  if time <> old || (time = 0.0 && Float.sign_bit time <> Float.sign_bit old) then
    t.now_fresh <- false;
  t.clock.(0) <- time

let rng t = t.root_rng
let pending t = Heap.size t.conts + Heap.size t.thunks
let events_executed t = t.executed

let add_probe t probe = t.probes <- t.probes @ [ probe ]
let observed t = t.probes <> []
(* A recursive walk, not [List.iter] over a closure capturing [info]:
   emitting builds nothing beyond the event itself. *)
let rec emit_to info = function
  | [] -> ()
  | probe :: rest ->
      probe info;
      emit_to info rest

let emit t info = emit_to info t.probes

(* The reusable blocks are filled by matching on their constructor,
   the only way to reach an inline record's fields; the other branch
   never runs.  A block outlives a minor collection, so storing a
   pointer in it runs the write barrier, a C call that costs more than
   allocating a fresh event did: a pointer field already holding the
   value (the clock's box at an unchanged time, a lock's name) is left
   alone. *)
let emit_scheduled t ~at ~pid =
  (match t.ev_scheduled with
  | Scheduled r ->
      let box = now t in
      if r.now != box then r.now <- box;
      r.at <- at;
      r.pid <- pid
  | _ -> ());
  emit t t.ev_scheduled

let emit_executed t ~pid =
  (match t.ev_executed with
  | Executed r ->
      let box = now t in
      if r.now != box then r.now <- box;
      r.pid <- pid
  | _ -> ());
  emit t t.ev_executed

let emit_suspended t ~pid ~token =
  (match t.ev_suspended with
  | Suspended r ->
      let box = now t in
      if r.now != box then r.now <- box;
      r.pid <- pid;
      r.token <- token
  | _ -> ());
  emit t t.ev_suspended

let emit_woken t ~pid ~token =
  (match t.ev_woken with
  | Woken r ->
      let box = now t in
      if r.now != box then r.now <- box;
      r.pid <- pid;
      r.token <- token
  | _ -> ());
  emit t t.ev_woken

let emit_sync t ~name op =
  if observed t then begin
    (match t.ev_sync with
    | Sync r ->
        let box = now t in
        if r.now != box then r.now <- box;
        r.pid <- t.cur_pid;
        if r.name != name then r.name <- name;
        if r.op != op then r.op <- op
    | _ -> ());
    emit t t.ev_sync
  end

(* A barrier's payloads are its own reused blocks; the lock payloads
   are immutable. *)
let copy_sync_op = function
  | Barrier_arrive { generation; arrived; parties } ->
      Barrier_arrive { generation; arrived; parties }
  | Barrier_release { generation } -> Barrier_release { generation }
  | Barrier_depart { generation; parties } -> Barrier_depart { generation; parties }
  | (Acquire _ | Release | Read_acquire _ | Read_release | Write_acquire _ | Write_release)
    as op ->
      op

let copy_event = function
  | Scheduled { now; at; pid } -> Scheduled { now; at; pid }
  | Executed { now; pid } -> Executed { now; pid }
  | Suspended { now; pid; token } -> Suspended { now; pid; token }
  | Woken { now; pid; token } -> Woken { now; pid; token }
  | Sync { now; pid; name; op } -> Sync { now; pid; name; op = copy_sync_op op }
  | (Injected _ | Denied _ | Rank_transition _) as e -> e

let current_pid t = t.cur_pid
let set_acquire_hook t hook = t.acquire_hook <- hook
let acquire_hook t = t.acquire_hook

(* Admit an event at [at] and take its sequence number; the caller
   pushes it under [t.seq].  Inlined, so a time computed into the delay
   cell is checked without being boxed. *)
let[@inline] admit t ~pid at =
  (* Emit before validating so a sanitizer records the violation even
     though the engine still refuses it. *)
  if observed t then emit_scheduled t ~at ~pid;
  (* A NaN time passes the [< now] test below and would silently break
     the heap order, so non-finite times are refused first. *)
  if not (Float.is_finite at) then
    invalid_arg (Printf.sprintf "Engine.schedule: time %g is not finite" at);
  if at < t.clock.(0) then
    invalid_arg
      (Printf.sprintf "Engine.schedule: time %g is before now %g" at t.clock.(0));
  t.seq <- t.seq + 1

(* Execute one dequeued event, [run x], under its pid: [exec t ~pid f ()]
   starts a spawned thunk, [exec t ~pid resume k] resumes a continuation. *)
let exec t ~pid run x =
  let saved = t.cur_pid in
  t.cur_pid <- pid;
  if observed t then emit_executed t ~pid;
  match run x with
  | () -> t.cur_pid <- saved
  | exception exn ->
      t.cur_pid <- saved;
      raise exn

let resume k = Effect.Deep.continue k ()

(* --- parking by ticket ----------------------------------------------- *)

(* A ticket is [token lsl slot_bits lor slot]: one immediate int that a
   wait queue holds without boxing.  Tokens stay below [max_token], so a
   ticket leaves the top bit of a non-negative int clear and a primitive
   may shift it left once to tag it. *)
let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1
let max_token = 1 lsl (Sys.int_size - 2 - slot_bits)

(* What a free slot's [park_k] holds: an immediate the GC skips, so a
   woken continuation is not kept alive by its old slot.  It is never
   resumed, since a free slot's token is 0 and no ticket matches it. *)
let no_continuation : (unit, unit) Effect.Deep.continuation = Obj.magic 0

(* Grow every column, pushing the new slots on the free stack. *)
let grow_park t =
  let cap = Array.length t.park_token in
  let ncap = if cap = 0 then 16 else 2 * cap in
  if ncap > slot_mask + 1 then failwith "Engine: too many parked processes";
  let widen a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.park_token <- widen t.park_token 0;
  t.park_pid <- widen t.park_pid 0;
  t.park_since <- widen t.park_since 0.0;
  t.park_k <- widen t.park_k no_continuation;
  t.park_free <- widen t.park_free 0;
  for slot = ncap - 1 downto cap do
    t.park_free.(t.park_nfree) <- slot;
    t.park_nfree <- t.park_nfree + 1
  done

(* The ticket the next park will take: the next token, in the slot on
   top of the free stack.  Peeking takes nothing, so asking twice before
   parking returns the same ticket. *)
let ticket t =
  if t.park_nfree = 0 then grow_park t;
  if t.next_token + 1 >= max_token then failwith "Engine: suspension tokens exhausted";
  ((t.next_token + 1) lsl slot_bits) lor t.park_free.(t.park_nfree - 1)

(* Park the running process's continuation [k] under a fresh token and
   return its ticket.  A token is never reused, so a second wake of the
   ticket finds a different token (or 0) in the slot, even once the
   slot holds another process. *)
let park_cont t k =
  let ticket = ticket t in
  let pid = t.cur_pid in
  let token = ticket lsr slot_bits and slot = ticket land slot_mask in
  t.next_token <- token;
  t.park_nfree <- t.park_nfree - 1;
  t.park_token.(slot) <- token;
  t.park_pid.(slot) <- pid;
  t.park_since.(slot) <- t.clock.(0);
  t.park_k.(slot) <- k;
  if observed t then emit_suspended t ~pid ~token;
  ticket

(* The waker schedules the parked continuation at the current time,
   under the parked process's pid, not the waker's.  A wake is never in
   the past or non-finite, so [admit]'s checks are skipped and the
   expiry is pushed from the clock cell: only a probe needs a box, and
   it gets the clock's shared one. *)
let wake_ticket t ticket =
  let token = ticket lsr slot_bits and slot = ticket land slot_mask in
  let known = slot < Array.length t.park_token in
  let live = known && token <> 0 && t.park_token.(slot) = token in
  (* Emitted before the check, so a sanitizer records a double wake the
     engine then refuses.  A freed slot keeps its last pid, so a second
     wake names its process, unless the slot was reused since. *)
  if observed t then
    emit_woken t ~pid:(if known then t.park_pid.(slot) else 0) ~token;
  if not live then failwith "Engine: process woken twice";
  let pid = t.park_pid.(slot) and k = t.park_k.(slot) in
  t.park_token.(slot) <- 0;
  t.park_k.(slot) <- no_continuation;
  t.park_free.(t.park_nfree) <- slot;
  t.park_nfree <- t.park_nfree + 1;
  if observed t then emit_scheduled t ~at:(now t) ~pid;
  t.seq <- t.seq + 1;
  Heap.push_cell t.conts t.clock ~seq:t.seq ~pid k

let create ?(seed = 0) () =
  let root_rng = Ksurf_util.Prng.create seed in
  let clock = [| 0.0 |] and delay_arg = [| 0.0 |] in
  let rec t =
    {
      clock;
      now_box = 0.0;
      now_fresh = true;
      next_time = [| 0.0 |];
      seq = 0;
      conts = Heap.create ();
      thunks = Heap.create ();
      root_rng;
      executed = 0;
      probes = [];
      ev_scheduled = Scheduled { now = 0.0; at = 0.0; pid = 0 };
      ev_executed = Executed { now = 0.0; pid = 0 };
      ev_suspended = Suspended { now = 0.0; pid = 0; token = 0 };
      ev_woken = Woken { now = 0.0; pid = 0; token = 0 };
      ev_sync = Sync { now = 0.0; pid = 0; name = ""; op = Release };
      cur_pid = 0;
      next_pid = 0;
      next_token = 0;
      acquire_hook = None;
      delay_arg;
      delay_eff = Delay t;
      park_eff = Park t;
      suspend_eff = Suspend t;
      register = ignore;
      (* [delay] computed the expiry into the delay cell; it is pushed
         from there, so a delay allocates no time box of its own. *)
      on_delay =
        Some
          (fun k ->
            let pid = t.cur_pid in
            admit t ~pid delay_arg.(0);
            Heap.push_cell t.conts delay_arg ~seq:t.seq ~pid k);
      on_park = Some (fun k -> ignore (park_cont t k));
      on_suspend =
        Some
          (fun k ->
            let ticket = park_cont t k in
            let register = t.register in
            t.register <- ignore;
            register (fun () -> wake_ticket t ticket));
      handler =
        {
          retc = (fun () -> ());
          exnc =
            (fun exn ->
              raise (Process_error (Printf.sprintf "at t=%g" clock.(0), exn)));
          effc =
            (fun (type a) (eff : a Effect.t) :
                 ((a, unit) Effect.Deep.continuation -> unit) option ->
              match eff with
              | Delay eng when eng == t -> t.on_delay
              | Park eng when eng == t -> t.on_park
              | Suspend eng when eng == t -> t.on_suspend
              | _ -> None);
        };
      park_token = [||];
      park_pid = [||];
      park_since = [||];
      park_k = [||];
      park_free = [||];
      park_nfree = 0;
      run_stop = None;
      horizon = [| Float.neg_infinity |];
      stall_at = [| 0.0 |];
      stalled = 0;
    }
  in
  t

let handle t f = Effect.Deep.match_with f () t.handler

let spawn ?at t f =
  let at = match at with Some a -> a | None -> now t in
  t.next_pid <- t.next_pid + 1;
  let pid = t.next_pid in
  admit t ~pid at;
  Heap.push t.thunks ~time:at ~seq:t.seq ~pid (fun () -> handle t f)

let engine_of_process name =
  match get_current () with
  | Some t -> t
  | None -> failwith (name ^ ": called outside of a simulation process")

(* Poll the running loop's [stop] as the loop would.  A [true] is
   latched, so the loop, which ends the run next, does not poll again. *)
let stop_latched = Some (fun () -> true)

let stopping t =
  match t.run_stop with
  | None -> false
  | Some f ->
      f ()
      && begin
           t.run_stop <- stop_latched;
           true
         end

(* Whether the delay whose expiry is in the delay cell is the event the
   run loop would execute next, and if so, do that execution's work in
   place: the process keeps running instead of performing, going
   through the heap and being resumed.  It is next when it moves the
   clock (an expiry the clock absorbs is left to the loop, whose stall
   watchdog counts it), stays within the loop's [until] and
   [deadline], fires strictly before both heap tops (a queued event at
   the same time took its seq first), and the loop's [stop], polled
   last as the loop would poll it, is false.  The work is the loop's,
   in its order: the Scheduled probe event, a seq, the clock, the event
   count, the watchdog, the Executed event. *)
let step_in_place t =
  let wake = t.delay_arg in
  let next =
    wake.(0) > t.clock.(0)
    && wake.(0) <= t.horizon.(0)
    && wake.(0) < Float.infinity
    && Heap.fires_after t.conts wake
    && Heap.fires_after t.thunks wake
    && not (stopping t)
  in
  if next then begin
    let pid = t.cur_pid in
    if observed t then emit_scheduled t ~at:wake.(0) ~pid;
    t.seq <- t.seq + 1;
    set_clock t wake.(0);
    t.executed <- t.executed + 1;
    t.stall_at.(0) <- wake.(0);
    t.stalled <- 0;
    if observed t then emit_executed t ~pid
  end;
  next

(* Inlined into [delay_from_cell], so a duration read from a cell
   stays unboxed through the validation and the store of its expiry. *)
let[@inline] delay d =
  if d < 0.0 then invalid_arg "Engine.delay: negative";
  if not (Float.is_finite d) then invalid_arg "Engine.delay: not finite";
  if d = 0.0 then ()
  else begin
    let t = engine_of_process "Engine.delay" in
    t.delay_arg.(0) <- t.clock.(0) +. d;
    if not (step_in_place t) then Effect.perform t.delay_eff
  end

let delay_cell t = t.delay_arg
let delay_from_cell t = delay t.delay_arg.(0)

let park t =
  match get_current () with
  | Some cur when cur == t -> Effect.perform t.park_eff
  | _ -> failwith "Engine.park: called outside of a process of this engine"

let suspend register =
  let t = engine_of_process "Engine.suspend" in
  t.register <- register;
  Effect.perform t.suspend_eff

let blocked t =
  let acc = ref [] in
  for slot = 0 to Array.length t.park_token - 1 do
    let token = t.park_token.(slot) in
    if token <> 0 then acc := (t.park_pid.(slot), token, t.park_since.(slot)) :: !acc
  done;
  List.sort compare !acc

let hung_diagnostic t ~reason =
  let parked = blocked t in
  let parked_desc =
    match parked with
    | [] -> "no parked processes"
    | ps ->
        let shown = if List.length ps > 8 then (List.filteri (fun i _ -> i < 8) ps) else ps in
        let body =
          shown
          |> List.map (fun (pid, token, since) ->
                 Printf.sprintf "pid %d (token %d, parked since t=%g)" pid token
                   since)
          |> String.concat "; "
        in
        let extra = List.length ps - List.length shown in
        Printf.sprintf "%d parked: %s%s" (List.length ps) body
          (if extra > 0 then Printf.sprintf "; ... %d more" extra else "")
  in
  Printf.sprintf
    "Engine hung at t=%g (%s): %d runnable event(s) pending, %s" t.clock.(0) reason
    (pending t) parked_desc

(* Move the clock to the dequeued event's time, read from [next_time],
   and count the event.  No-progress detection: count consecutive
   executed events that fail to advance virtual time; a livelocked
   simulation (wake loops, zero-delay ping-pong) trips [stall_limit]
   long before wall-clock patience runs out, and the abort names the
   parked processes.  The last advancing time lives in a cell, so
   tracking it boxes nothing. *)
let advance t stall_limit =
  set_clock t t.next_time.(0);
  t.executed <- t.executed + 1;
  match stall_limit with
  | None -> ()
  | Some limit ->
      if t.clock.(0) > t.stall_at.(0) then begin
        t.stall_at.(0) <- t.clock.(0);
        t.stalled <- 0
      end
      else begin
        t.stalled <- t.stalled + 1;
        if t.stalled > limit then
          raise
            (Hung
               (hung_diagnostic t
                  ~reason:
                    (Printf.sprintf "no progress: %d consecutive events at t=%g"
                       t.stalled t.clock.(0))))
      end

let run ?until ?stop ?deadline ?stall_limit t =
  let saved = get_current () in
  let saved_stop = t.run_stop and saved_horizon = t.horizon.(0) in
  let saved_stall_at = t.stall_at.(0) and saved_stalled = t.stalled in
  set_current (Some t);
  t.run_stop <- stop;
  t.horizon.(0) <-
    Float.min
      (Option.value until ~default:Float.infinity)
      (Option.value deadline ~default:Float.infinity);
  t.stall_at.(0) <- t.clock.(0);
  t.stalled <- 0;
  Fun.protect
    ~finally:(fun () ->
      set_current saved;
      t.run_stop <- saved_stop;
      t.horizon.(0) <- saved_horizon;
      t.stall_at.(0) <- saved_stall_at;
      t.stalled <- saved_stalled)
    (fun () ->
      (* The loop reads the heaps through the non-allocating accessors
         ([top_before]/[top_time_into]/[top_pid]/[top]/[drop]) and
         moves the clock in its cell, so with [Heap.push] also
         allocation-free a probe-less engine executes a timer event for
         the continuation the runtime built alone — what keeps
         multi-domain sweeps from serialising on stop-the-world minor
         collections (DESIGN §6).  A delay that is the next event does
         this work itself ([step_in_place]) and never reaches the loop. *)
      let continue = ref true in
      while !continue do
        if (match t.run_stop with Some f -> f () | None -> false) then continue := false
        else if pending t = 0 then continue := false
        else begin
          let cont_first = Heap.top_before t.conts t.thunks in
          if cont_first then Heap.top_time_into t.conts t.next_time
          else Heap.top_time_into t.thunks t.next_time;
          if match until with Some u -> t.next_time.(0) > u | None -> false then
            continue := false
          else if match deadline with Some d -> t.next_time.(0) > d | None -> false
          then begin
            let d = Option.get deadline in
            set_clock t d;
            raise
              (Hung
                 (hung_diagnostic t
                    ~reason:
                      (Printf.sprintf
                         "virtual-time deadline %g exceeded by next event at %g" d
                         t.next_time.(0))))
          end
          else if cont_first then begin
            let pid = Heap.top_pid t.conts and k = Heap.top t.conts in
            Heap.drop t.conts;
            advance t stall_limit;
            exec t ~pid resume k
          end
          else begin
            let pid = Heap.top_pid t.thunks and f = Heap.top t.thunks in
            Heap.drop t.thunks;
            advance t stall_limit;
            exec t ~pid f ()
          end
        end
      done;
      match until with
      | Some u when u > t.clock.(0) && pending t = 0 -> set_clock t u
      | _ -> ())
