type t = {
  mutable now : float;
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
     register probes; the hot path only pays when one is attached. *)
  mutable probes : (event_info -> unit) list;
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
  (* Closure-free effects.  [delay] writes its duration into
     [delay_arg] (a float array, so the store does not box) and
     performs the engine's one preallocated [delay_eff]; [suspend]
     parks its register function in [register] and performs
     [suspend_eff].  The handler record and the [Some] closures the
     effect handler returns are built once per engine, so neither
     effect nor a spawn allocates handler machinery. *)
  delay_arg : float array;
  delay_eff : unit Effect.t;
  suspend_eff : unit Effect.t;
  mutable register : (unit -> unit) -> unit;
  on_delay : ((unit, unit) Effect.Deep.continuation -> unit) option;
  on_suspend : ((unit, unit) Effect.Deep.continuation -> unit) option;
  handler : (unit, unit) Effect.Deep.handler;
  (* Liveness accounting (krecov): every parked suspension holds a slot
     in a growable table, so a watchdog abort can name the processes
     that will never run again.  Slot [i] is free when [park_token.(i)]
     is 0; freed slots go on the [park_free] stack.  Maintained
     unconditionally, at a few array stores per suspend and wake. *)
  mutable park_token : int array;
  mutable park_pid : int array;
  mutable park_since : float array;
  mutable park_free : int array;
  mutable park_nfree : int;
}

and acquire_site = Lock_site | Resource_site

(* Probe events.  Synchronization primitives (lock.ml, rwlock.ml,
   barrier.ml) funnel their events through the engine so one
   [add_probe] observes a whole simulation; the types live here to
   avoid dependency cycles inside the library. *)
and event_info =
  | Scheduled of { now : float; at : float; pid : int }
      (** an event was pushed on the heap, to run as [pid] *)
  | Executed of { now : float; pid : int }
      (** a heap event started executing *)
  | Suspended of { now : float; pid : int; token : int }
      (** [pid] parked on a wait queue; [token] identifies the suspension *)
  | Woken of { now : float; pid : int; token : int }
      (** suspension [token] was woken *)
  | Sync of { now : float; pid : int; name : string; op : sync_op }
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
  | Barrier_arrive of { generation : int; arrived : int; parties : int }
  | Barrier_release of { generation : int }
  | Barrier_depart of { generation : int; parties : int }

exception Process_error of string * exn
exception Hung of string

(* The payload names the engine, so nested engines (e.g. per-node
   cluster simulations driven from a parent program) never handle each
   other's effects.  Each engine preallocates one value of each. *)
type _ Effect.t += Delay : t -> unit Effect.t | Suspend : t -> unit Effect.t

(* The engine whose handler is currently executing a process.  The
   ambient reference only serves the argumentless [delay]/[suspend]
   public API.  Domain-local, not global: independent engines running
   concurrently on worker domains (Ksurf_par sweep cells) must not
   clobber each other's ambient engine. *)
let current_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let get_current () = Domain.DLS.get current_key
let set_current v = Domain.DLS.set current_key v

let now t = t.now
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
let current_pid t = t.cur_pid
let set_acquire_hook t hook = t.acquire_hook <- hook
let acquire_hook t = t.acquire_hook

(* Admit an event at [at] and take its sequence number; the caller
   pushes it under [t.seq].  Inlined, so a time computed into the delay
   cell is checked without being boxed. *)
let[@inline] admit t ~pid at =
  (* Emit before validating so a sanitizer records the violation even
     though the engine still refuses it. *)
  if observed t then emit t (Scheduled { now = t.now; at; pid });
  (* A NaN time passes the [< now] test below and would silently break
     the heap order, so non-finite times are refused first. *)
  if not (Float.is_finite at) then
    invalid_arg (Printf.sprintf "Engine.schedule: time %g is not finite" at);
  if at < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule: time %g is before now %g" at t.now);
  t.seq <- t.seq + 1

(* Execute one dequeued event, [run x], under its pid: [exec t ~pid f ()]
   starts a spawned thunk, [exec t ~pid resume k] resumes a continuation. *)
let exec t ~pid run x =
  let saved = t.cur_pid in
  t.cur_pid <- pid;
  if observed t then emit t (Executed { now = t.now; pid });
  match run x with
  | () -> t.cur_pid <- saved
  | exception exn ->
      t.cur_pid <- saved;
      raise exn

let resume k = Effect.Deep.continue k ()

(* --- the parking slot table ------------------------------------------ *)

(* Grow every column, pushing the new slots on the free stack. *)
let grow_park t =
  let cap = Array.length t.park_token in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let widen a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.park_token <- widen t.park_token 0;
  t.park_pid <- widen t.park_pid 0;
  t.park_since <- widen t.park_since 0.0;
  t.park_free <- widen t.park_free 0;
  for slot = ncap - 1 downto cap do
    t.park_free.(t.park_nfree) <- slot;
    t.park_nfree <- t.park_nfree + 1
  done

let take_slot t ~token ~pid =
  if t.park_nfree = 0 then grow_park t;
  t.park_nfree <- t.park_nfree - 1;
  let slot = t.park_free.(t.park_nfree) in
  t.park_token.(slot) <- token;
  t.park_pid.(slot) <- pid;
  t.park_since.(slot) <- t.now;
  slot

let free_slot t slot =
  t.park_token.(slot) <- 0;
  t.park_free.(t.park_nfree) <- slot;
  t.park_nfree <- t.park_nfree + 1

(* Park the running process under a fresh token and hand its register
   function the wake.  A token is never reused while its slot may be,
   so a second wake finds a different token (or 0) in the slot. *)
let park t k =
  let pid = t.cur_pid in
  let register = t.register in
  t.register <- ignore;
  t.next_token <- t.next_token + 1;
  let token = t.next_token in
  let slot = take_slot t ~token ~pid in
  if observed t then emit t (Suspended { now = t.now; pid; token });
  let wake () =
    if observed t then emit t (Woken { now = t.now; pid; token });
    if t.park_token.(slot) <> token then failwith "Engine: process woken twice";
    free_slot t slot;
    (* The continuation resumes under the suspended process's pid, not
       the waker's. *)
    admit t ~pid t.now;
    Heap.push t.conts ~time:t.now ~seq:t.seq ~pid k
  in
  register wake

let create ?(seed = 0) () =
  let root_rng = Ksurf_util.Prng.create seed in
  let delay_arg = [| 0.0 |] in
  let rec t =
    {
      now = 0.0;
      seq = 0;
      conts = Heap.create ();
      thunks = Heap.create ();
      root_rng;
      executed = 0;
      probes = [];
      cur_pid = 0;
      next_pid = 0;
      next_token = 0;
      acquire_hook = None;
      delay_arg;
      delay_eff = Delay t;
      suspend_eff = Suspend t;
      register = ignore;
      (* The expiry is computed into the delay cell and pushed from
         there, so a delay allocates no time box of its own. *)
      on_delay =
        Some
          (fun k ->
            let pid = t.cur_pid in
            delay_arg.(0) <- t.now +. delay_arg.(0);
            admit t ~pid delay_arg.(0);
            Heap.push_cell t.conts delay_arg ~seq:t.seq ~pid k);
      on_suspend = Some (fun k -> park t k);
      handler =
        {
          retc = (fun () -> ());
          exnc =
            (fun exn -> raise (Process_error (Printf.sprintf "at t=%g" t.now, exn)));
          effc =
            (fun (type a) (eff : a Effect.t) :
                 ((a, unit) Effect.Deep.continuation -> unit) option ->
              match eff with
              | Delay eng when eng == t -> t.on_delay
              | Suspend eng when eng == t -> t.on_suspend
              | _ -> None);
        };
      park_token = [||];
      park_pid = [||];
      park_since = [||];
      park_free = [||];
      park_nfree = 0;
    }
  in
  t

let handle t f = Effect.Deep.match_with f () t.handler

let spawn ?at t f =
  let at = match at with Some a -> a | None -> t.now in
  t.next_pid <- t.next_pid + 1;
  let pid = t.next_pid in
  admit t ~pid at;
  Heap.push t.thunks ~time:at ~seq:t.seq ~pid (fun () -> handle t f)

let engine_of_process name =
  match get_current () with
  | Some t -> t
  | None -> failwith (name ^ ": called outside of a simulation process")

(* Inlined into [delay_from_cell], so a duration read from a cell
   stays unboxed through the validation and the store. *)
let[@inline] delay d =
  if d < 0.0 then invalid_arg "Engine.delay: negative";
  if not (Float.is_finite d) then invalid_arg "Engine.delay: not finite";
  if d = 0.0 then ()
  else begin
    let t = engine_of_process "Engine.delay" in
    t.delay_arg.(0) <- d;
    Effect.perform t.delay_eff
  end

let delay_cell t = t.delay_arg
let delay_from_cell t = delay t.delay_arg.(0)

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
    "Engine hung at t=%g (%s): %d runnable event(s) pending, %s" t.now reason
    (pending t) parked_desc

let run ?until ?stop ?deadline ?stall_limit t =
  let saved = get_current () in
  set_current (Some t);
  (* No-progress detection: count consecutive executed events that fail to
     advance virtual time; a livelocked simulation (wake loops, zero-delay
     ping-pong) trips [stall_limit] long before wall-clock patience runs
     out, and the abort names the parked processes. *)
  let stall_at = ref t.now in
  let stalled = ref 0 in
  (* Move the clock to a dequeued event's time and count it.  [time] is
     [Heap.top_time]'s box, which [t.now] keeps. *)
  let advance time =
    t.now <- time;
    t.executed <- t.executed + 1;
    match stall_limit with
    | None -> ()
    | Some limit ->
        if time > !stall_at then begin
          stall_at := time;
          stalled := 0
        end
        else begin
          incr stalled;
          if !stalled > limit then
            raise
              (Hung
                 (hung_diagnostic t
                    ~reason:
                      (Printf.sprintf "no progress: %d consecutive events at t=%g"
                         !stalled time)))
        end
  in
  Fun.protect
    ~finally:(fun () -> set_current saved)
    (fun () ->
      (* The loop reads the heaps through the non-allocating accessors
         ([top_before]/[top_pid]/[top]/[drop]); only [top_time] boxes,
         and that box becomes [t.now].  With [Heap.push] also
         allocation-free, a probe-less engine executes a timer event
         for the continuation the runtime built and the clock box alone
         — what keeps multi-domain sweeps from serialising on
         stop-the-world minor collections (DESIGN §6). *)
      let continue = ref true in
      while !continue do
        if (match stop with Some f -> f () | None -> false) then continue := false
        else if pending t = 0 then continue := false
        else begin
          let cont_first = Heap.top_before t.conts t.thunks in
          let time =
            if cont_first then Heap.top_time t.conts else Heap.top_time t.thunks
          in
          if match until with Some u -> time > u | None -> false then
            continue := false
          else if match deadline with Some d -> time > d | None -> false then begin
            t.now <- (match deadline with Some d -> d | None -> t.now);
            raise
              (Hung
                 (hung_diagnostic t
                    ~reason:
                      (Printf.sprintf
                         "virtual-time deadline %g exceeded by next event at %g"
                         (Option.get deadline) time)))
          end
          else if cont_first then begin
            let pid = Heap.top_pid t.conts and k = Heap.top t.conts in
            Heap.drop t.conts;
            advance time;
            exec t ~pid resume k
          end
          else begin
            let pid = Heap.top_pid t.thunks and f = Heap.top t.thunks in
            Heap.drop t.thunks;
            advance time;
            exec t ~pid f ()
          end
        end
      done;
      match until with
      | Some u when u > t.now && pending t = 0 -> t.now <- u
      | _ -> ())
