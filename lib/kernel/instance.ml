module Engine = Ksurf_sim.Engine
module Lock = Ksurf_sim.Lock
module Rwlock = Ksurf_sim.Rwlock
module Resource = Ksurf_sim.Resource
module Dist = Ksurf_util.Dist
module Prng = Ksurf_util.Prng

type ctx = { core : int; tenant : int; key : int; cgroup : int option }

(* A striped lock group.  A stripe is created, and named
   [prefix ^ "[i]"], the first time a context resolves to it; later
   lookups return that same object.  The slot array itself is made on
   the group's first touch.  A churned guest touches a handful of its
   stripes in a few of its groups, so boot costs what the guest uses
   rather than what the stripe counts allow. *)
type 'a stripes = { prefix : string; count : int; mutable slots : 'a option array }

type t = {
  engine : Engine.t;
  clock : float array;  (* [Engine.clock engine], read in place *)
  config : Config.t;
  id : int;
  cores : int;
  mem_mb : int;
  rng : Prng.t;
  (* The cell every sampled duration is drawn into ([sample]), so no
     draw is boxed.  Read at once: a process that parks keeps its
     duration in an unboxed local, not here. *)
  draw : float array;
  (* Global (one per instance) locks, in Ops.lock_ref order where global. *)
  tasklist : Lock.t;
  zone : Lock.t;
  dcache_lock : Lock.t;
  journal : Lock.t;
  msgq_registry : Lock.t;
  cred : Lock.t;
  audit : Lock.t;
  cgroup_css : Lock.t;
  (* Striped locks, each stripe created on first touch. *)
  runqueues : Lock.t stripes; (* one per core *)
  page_cache_tree : Lock.t stripes;
  inode : Lock.t stripes;
  pipe : Lock.t stripes;
  futex : Lock.t stripes;
  (* Reader-writer semaphores. *)
  mmap_sem : Rwlock.t stripes; (* striped by tenant: per-address-space *)
  sb_umount : Rwlock.t;
  (* Software caches. *)
  dcache : Caches.t;
  page_cache : Caches.t;
  (* Devices. *)
  block_dev : Resource.t;
  mutable tenants : int;
  mutable cgroups : int;
  (* Activity tracking: housekeeping intensity follows load (jbd2 only
     commits dirty transactions, kswapd only scans under pressure, IPI
     targets only ack late when busy in the kernel). *)
  mutable win_start : float;
  mutable win_ops : int;
  mutable busy : float;  (* smoothed per-core kernel-op rate, 0..1 *)
  activity : int array;  (* per activity-class op counters *)
  (* Fault-injection state, written by kfault.  [burn_mult] dilates all
     in-kernel CPU time (a slow memory channel window);
     [daemon_hold_mult] lets an injector stretch the background
     daemons' lock holds (a daemon storm). *)
  mutable burn_mult : float;
  mutable daemon_hold_mult : (string -> float) option;
  (* Shutdown: background daemons exit at their next wakeup instead of
     looping forever, so a decommissioned guest (a departed tenant's
     private kernel) stops generating events and can be collected. *)
  mutable halted : bool;
  (* Specialization state, written by kspec (lib/spec): per-tenant
     syscall policies on a shared instance (seccomp-style filters
     installed per process).  Consulted by Env on every syscall —
     tenant-id-indexed array, not a hashtable, so the per-call lookup
     neither hashes nor allocates (the stored option is returned as
     is).  Installs are rare; the array grows to the largest tenant id
     seen. *)
  mutable policies : syscall_policy option array;
}

and policy_mode = Audit | Enforce

and syscall_policy = {
  allows : string -> bool;  (** syscall name -> permitted? *)
  policy_mode : policy_mode;
  reachable : float;  (** fraction of the coverage universe left reachable *)
  denials : int ref;  (** incremented on every rejected call *)
}

type activity_class = Fs_activity | Mm_activity | Sched_activity | Charge_activity

let class_index = function
  | Fs_activity -> 0
  | Mm_activity -> 1
  | Sched_activity -> 2
  | Charge_activity -> 3

let stripes prefix count = { prefix; count; slots = [||] }

let stripe engine (create : engine:Engine.t -> name:string -> 'a) s i =
  if Array.length s.slots = 0 then s.slots <- Array.make s.count None;
  let i = i mod s.count in
  match s.slots.(i) with
  | Some l -> l
  | None ->
      let l =
        create ~engine ~name:(String.concat "" [ s.prefix; "["; string_of_int i; "]" ])
      in
      s.slots.(i) <- Some l;
      l

let boot ~engine ~config ~id ~cores ~mem_mb ?block_dev () =
  if cores < 1 then invalid_arg "Instance.boot: cores must be >= 1";
  if mem_mb < 1 then invalid_arg "Instance.boot: mem_mb must be >= 1";
  let rng = Prng.split (Engine.rng engine) ("kernel-" ^ string_of_int id) in
  let prefix = "k" ^ string_of_int id ^ "." in
  let lock name = Lock.create ~engine ~name:(prefix ^ name) in
  let block_dev =
    match block_dev with
    | Some dev -> dev
    | None ->
        Resource.create ~engine ~name:(prefix ^ "blkdev")
          ~capacity:config.Config.block_queue_depth
  in
  {
    engine;
    clock = Engine.clock engine;
    config;
    id;
    cores;
    mem_mb;
    rng;
    draw = [| 0.0 |];
    tasklist = lock "tasklist";
    zone = lock "zone";
    dcache_lock = lock "dcache";
    journal = lock "journal";
    msgq_registry = lock "msgq_registry";
    cred = lock "cred";
    audit = lock "audit";
    cgroup_css = lock "cgroup_css";
    runqueues = stripes (prefix ^ "runqueue") cores;
    page_cache_tree = stripes (prefix ^ "pct") 8;
    inode = stripes (prefix ^ "inode") 16;
    pipe = stripes (prefix ^ "pipe") 32;
    futex = stripes (prefix ^ "futex") 64;
    mmap_sem = stripes (prefix ^ "mmap_sem") 64;
    sb_umount = Rwlock.create ~engine ~name:(prefix ^ "sb_umount");
    dcache =
      Caches.create ~name:"dcache" ~base_hit_rate:0.97
        ~pressure_per_sharer:config.Config.cache_pressure_per_sharer;
    page_cache =
      Caches.create ~name:"page_cache" ~base_hit_rate:0.95
        ~pressure_per_sharer:config.Config.cache_pressure_per_sharer;
    block_dev;
    tenants = 1;
    cgroups = 0;
    win_start = 0.0;
    win_ops = 0;
    busy = 0.0;
    activity = Array.make 4 0;
    burn_mult = 1.0;
    daemon_hold_mult = None;
    halted = false;
    policies = [||];
  }

let engine t = t.engine
let config t = t.config
let cores t = t.cores
let mem_mb t = t.mem_mb

let surface_area t =
  ((float_of_int t.cores /. 64.0) +. (float_of_int t.mem_mb /. 32768.0)) /. 2.0

let set_tenants t n =
  t.tenants <- max 1 n;
  Caches.set_sharers t.dcache t.tenants;
  Caches.set_sharers t.page_cache t.tenants

let register_cgroup t =
  t.cgroups <- t.cgroups + 1;
  t.cgroups

let cgroup_count t = t.cgroups
let block_dev t = t.block_dev
let rng t = t.rng
let halt t = t.halted <- true
let halted t = t.halted

(* --- fault-injection controls (kfault) ------------------------------- *)

let set_burn_mult t m =
  if m <= 0.0 then invalid_arg "Instance.set_burn_mult: must be positive";
  t.burn_mult <- m

let set_daemon_hold_mult t f = t.daemon_hold_mult <- f

let daemon_hold_mult t ~daemon =
  match t.daemon_hold_mult with None -> 1.0 | Some f -> f daemon

let set_cache_pressure t p =
  Caches.set_extra_pressure t.dcache p;
  Caches.set_extra_pressure t.page_cache p

(* --- specialization controls (kspec) --------------------------------- *)

let set_syscall_policy t ~tenant policy =
  if tenant < 0 then invalid_arg "Instance.set_syscall_policy: negative tenant";
  (match policy with
  | None -> ()
  | Some p ->
      if not (p.reachable > 0.0 && p.reachable <= 1.0) then
        invalid_arg "Instance.set_syscall_policy: reachable must be in (0, 1]");
  if tenant >= Array.length t.policies then begin
    match policy with
    | None -> ()  (* removing a policy that was never installed *)
    | Some _ ->
        let ncap = max 8 (max (2 * Array.length t.policies) (tenant + 1)) in
        let np = Array.make ncap None in
        Array.blit t.policies 0 np 0 (Array.length t.policies);
        t.policies <- np
  end;
  if tenant < Array.length t.policies then t.policies.(tenant) <- policy

let syscall_policy t ~tenant =
  if tenant >= 0 && tenant < Array.length t.policies then t.policies.(tenant)
  else None

(* A core driving the kernel flat out executes roughly one op per 12 µs (lock convoys and sleeps included);
   [busy] is the instance's smoothed per-core rate relative to that. *)
let full_ops_per_core_ns = 8e-5
let busy_window_ns = 5e6

let note_op t =
  t.win_ops <- t.win_ops + 1;
  let elapsed = t.clock.(0) -. t.win_start in
  if elapsed >= busy_window_ns then begin
    let rate =
      float_of_int t.win_ops /. Float.max 1.0 elapsed
      /. (full_ops_per_core_ns *. float_of_int t.cores)
    in
    (* Light smoothing so one quiet window does not erase pressure. *)
    t.busy <- Float.min 1.0 ((0.3 *. t.busy) +. (0.7 *. rate));
    t.win_start <- Engine.now t.engine;
    t.win_ops <- 0
  end

let busy_fraction t = t.busy

let note_activity t cls = t.activity.(class_index cls) <- t.activity.(class_index cls) + 1

let take_activity t cls =
  let i = class_index cls in
  let v = t.activity.(i) in
  t.activity.(i) <- 0;
  v

let lock_stripe t s i = stripe t.engine Lock.create s i

let lock t ctx (ref : Ops.lock_ref) =
  match ref with
  | Ops.Runqueue -> lock_stripe t t.runqueues ctx.core
  | Ops.Tasklist -> t.tasklist
  | Ops.Zone -> t.zone
  | Ops.Page_cache_tree ->
      (* Striped by (tenant, object): tenants mostly touch private files,
         but stripes are few enough that co-tenants do collide. *)
      lock_stripe t t.page_cache_tree (ctx.tenant + ctx.key)
  | Ops.Dcache -> t.dcache_lock
  | Ops.Inode -> lock_stripe t t.inode ((ctx.tenant * 7) + ctx.key)
  | Ops.Journal -> t.journal
  | Ops.Pipe -> lock_stripe t t.pipe ((ctx.tenant * 13) + ctx.key)
  | Ops.Msgq_registry -> t.msgq_registry
  | Ops.Futex_bucket -> lock_stripe t t.futex ((ctx.tenant * 31) + ctx.key)
  | Ops.Cred -> t.cred
  | Ops.Audit -> t.audit
  | Ops.Cgroup_css -> t.cgroup_css

let rwlock t ctx (ref : Ops.rw_ref) =
  match ref with
  | Ops.Mmap_sem -> stripe t.engine Rwlock.create t.mmap_sem ctx.tenant
  | Ops.Sb_umount -> t.sb_umount

(* [Prng.uniform rng], drawn here from [Prng.bits53] so the value stays
   an unboxed local: same draw, same value. *)
let[@inline always] unit_draw rng =
  float_of_int (Prng.bits53 rng) *. (1.0 /. 9007199254740992.0)

(* [Prng.chance rng p], with a freshly computed [p] never boxed into a
   call: same comparisons, same draw, same value. *)
let[@inline always] chance rng p =
  if p <= 0.0 then false else if p >= 1.0 then true else unit_draw rng < p

(* A sample of [dist] from the instance's stream, as [Dist.sample] draws
   it, read back from the draw cell: inlined, so the value is an
   unboxed local of the caller. *)
let[@inline] sample t dist =
  Dist.sample_into dist t.rng t.draw;
  t.draw.(0)

(* In-kernel CPU time plus probabilistic timer-tick interference: a
   burst of duration [d] overlaps a tick with probability d/period, in
   which case the tick handler's work is added to the caller's time.
   Runs once per executed op, so it allocates nothing itself: the
   duration goes to the engine through its delay cell, not as a boxed
   argument to [Engine.delay].  Inlined, so the ops that compute their
   burn (page allocation, shootdowns, grace periods) do not box it
   either. *)
let[@inline] burn t d =
  let d = d *. t.config.Config.cpu_cost_factor *. t.burn_mult in
  let d =
    if not t.config.Config.enable_timer_noise then d
    else if chance t.rng (Float.min 1.0 (d /. t.config.Config.tick_period)) then
      d +. sample t t.config.Config.tick_service_cost
    else d
  in
  if d > 0.0 then begin
    (Engine.delay_cell t.engine).(0) <- d;
    Engine.delay_from_cell t.engine
  end

(* TLB shootdown: flush the local TLB, then IPI every other core the
   address space has run on and wait for all acknowledgements.  The span
   is bounded by the instance's cores — a uniprocessor instance never
   leaves the local-flush fast path (the paper's 64-VM collapse).  Some
   targets acknowledge late (interrupts disabled, deep kernel paths);
   the wait is the max over targets, so the tail grows with the span. *)
let tlb_shootdown t =
  let cfg = t.config in
  burn t 200.0;
  if cfg.Config.enable_tlb_shootdown && t.cores > 1 then begin
    let span = min (t.cores - 1) 7 in
    let base = float_of_int span *. cfg.Config.ipi_cost in
    (* Targets only acknowledge late when they are busy inside the
       kernel; both the probability and the length of the stall follow
       the instance's load (the stall is the target's remaining
       interrupts-off section, which only co-tenant kernel activity can
       stretch). *)
    let load = Float.max 0.005 t.busy in
    let slow_prob = cfg.Config.tlb_ack_slow_prob *. load in
    let slowest = ref 0.0 in
    for _ = 1 to span do
      if chance t.rng slow_prob then begin
        let cost = sample t cfg.Config.tlb_ack_slow_cost *. Float.max 0.1 t.busy in
        if cost > !slowest then slowest := cost
      end
    done;
    burn t (base +. !slowest)
  end

(* RCU synchronisation: wait for a grace period.  Grace periods must
   observe a quiescent state on every core of the instance, so the wait
   scales with the surface area. *)
let rcu_sync t =
  let per_core = 350.0 in
  let base = 2_000.0 in
  let jitter = unit_draw t.rng *. (float_of_int t.cores *. per_core) in
  burn t (base +. (float_of_int t.cores *. per_core) +. jitter)

let page_alloc t _ctx order =
  let pages = 1 lsl order in
  let hold = 120.0 +. (float_of_int pages *. 15.0) in
  Lock.acquire t.zone;
  burn t hold;
  Lock.release t.zone

let block_io t ~bytes ~write =
  let cfg = t.config in
  let service =
    sample t cfg.Config.block_latency
    +. (float_of_int bytes *. cfg.Config.block_bandwidth_ns_per_byte)
    +. if write then 5_000.0 else 0.0
  in
  Resource.acquire t.block_dev;
  (Engine.delay_cell t.engine).(0) <- service;
  Engine.delay_from_cell t.engine;
  Resource.release t.block_dev

let cgroup_charge t ctx =
  let cfg = t.config in
  match ctx.cgroup with
  | None -> ()
  | Some _ when not cfg.Config.enable_cgroup_accounting -> ()
  | Some _ ->
      burn t cfg.Config.cgroup_charge_fast_cost;
      (* Per-cpu charge caches absorb most charges; occasionally the
         batch spills to the shared subsystem state.  The spill rate
         grows with the number of live cgroups: more cgroups means less
         per-cgroup cache headroom and more hierarchy levels to walk. *)
      let slow_prob =
        cfg.Config.cgroup_charge_slow_prob
        *. (1.0 +. (float_of_int t.cgroups /. 24.0))
      in
      if chance t.rng slow_prob then begin
        Lock.acquire t.cgroup_css;
        burn t (sample t cfg.Config.cgroup_charge_slow_hold);
        Lock.release t.cgroup_css
      end

(* Hold [l] for a sample of [hold], drawn before acquiring.  Inlined,
   so the drawn hold waits out the acquire as an unboxed local. *)
let[@inline] locked_burn t l hold =
  let d = sample t hold in
  Lock.acquire l;
  burn t d;
  Lock.release l

let rec exec_op t ctx (op : Ops.op) =
  let cfg = t.config in
  note_op t;
  (match op with
  | Ops.Lock (Ops.Journal, _) | Ops.Lock (Ops.Inode, _)
  | Ops.With_lock (Ops.Journal, _, _) | Ops.With_lock (Ops.Inode, _, _)
  | Ops.Dcache_lookup ->
      note_activity t Fs_activity
  | Ops.Page_alloc _ | Ops.Slab_alloc | Ops.Tlb_shootdown
  | Ops.Write_lock (Ops.Mmap_sem, _) ->
      note_activity t Mm_activity
  | Ops.Lock (Ops.Runqueue, _) | Ops.Lock (Ops.Tasklist, _)
  | Ops.With_lock (Ops.Runqueue, _, _) | Ops.With_lock (Ops.Tasklist, _, _) ->
      note_activity t Sched_activity
  | Ops.Cgroup_charge -> note_activity t Charge_activity
  | Ops.Cpu _ | Ops.Lock (_, _) | Ops.With_lock (_, _, _)
  | Ops.Read_lock (_, _) | Ops.Write_lock (Ops.Sb_umount, _)
  | Ops.Page_cache_lookup | Ops.Rcu_sync | Ops.Block_io _ | Ops.Sleep _ ->
      ());
  match op with
  | Ops.Cpu d -> burn t d
  | Ops.Lock (ref, hold) -> locked_burn t (lock t ctx ref) hold
  | Ops.With_lock (ref, hold, body) ->
      (* The outer lock stays held across the body: this is the only op
         that nests acquisitions, so it is the sole source of lock-order
         edges in syscall programs (observed by lockdep, predicted by
         the static lock graph in lib/staticcheck). *)
      let l = lock t ctx ref in
      Lock.acquire l;
      burn t (sample t hold);
      exec_list t ctx body;
      Lock.release l
  | Ops.Read_lock (ref, hold) ->
      let l = rwlock t ctx ref in
      Rwlock.acquire_read l;
      burn t (sample t hold);
      Rwlock.release_read l
  | Ops.Write_lock (ref, hold) ->
      let l = rwlock t ctx ref in
      Rwlock.acquire_write l;
      burn t (sample t hold);
      Rwlock.release_write l
  | Ops.Dcache_lookup ->
      if Caches.probe t.dcache t.rng then burn t cfg.Config.dcache_hit_cost
      else
        (* Miss: allocate and insert a dentry under the dcache lock. *)
        locked_burn t t.dcache_lock cfg.Config.dcache_miss_cost
  | Ops.Page_cache_lookup ->
      if Caches.probe t.page_cache t.rng then burn t cfg.Config.page_cache_hit_cost
      else begin
        let l = lock t ctx Ops.Page_cache_tree in
        locked_burn t l cfg.Config.page_cache_miss_cost
      end
  | Ops.Slab_alloc ->
      if Prng.chance t.rng cfg.Config.slab_refill_prob then
        (* Per-cpu magazine empty: refill from the shared slab. *)
        locked_burn t t.zone cfg.Config.slab_refill_cost
      else burn t cfg.Config.slab_fast_cost
  | Ops.Page_alloc order -> page_alloc t ctx order
  | Ops.Tlb_shootdown -> tlb_shootdown t
  | Ops.Rcu_sync -> rcu_sync t
  | Ops.Block_io { bytes; write } -> block_io t ~bytes ~write
  | Ops.Cgroup_charge -> cgroup_charge t ctx
  | Ops.Sleep dist ->
      Dist.sample_into dist t.rng (Engine.delay_cell t.engine);
      Engine.delay_from_cell t.engine

(* A direct recursion, not [List.iter (exec_op t ctx)]: the partial
   application would build a closure on every syscall and every
   [With_lock] body. *)
and exec_list t ctx = function
  | [] -> ()
  | op :: rest ->
      exec_op t ctx op;
      exec_list t ctx rest

let exec_program = exec_list

let exec_syscall t ctx ops =
  burn t t.config.Config.syscall_entry_cost;
  exec_list t ctx ops

(* --- cgroup lifecycle (ktenant churn storms) ------------------------- *)

let cgroup_create t ctx =
  let id = register_cgroup t in
  let ctx = { ctx with cgroup = Some id } in
  (if t.config.Config.enable_cgroup_accounting then
     let cfg = t.config in
     (* mkdir: allocate the css, bring every controller online under
        the css lock, attach the first task under the task list, then
        prime the charge caches.  Runs as an ordinary op program so
        probes see the storm exactly like syscall traffic. *)
     exec_program t ctx
       [
         Ops.Slab_alloc;
         Ops.With_lock
           ( Ops.Cgroup_css,
             Dist.scaled 4.0 cfg.Config.cgroup_charge_slow_hold,
             [ Ops.Lock (Ops.Tasklist, Dist.scaled 2.0 cfg.Config.cgroup_charge_slow_hold) ]
           );
         Ops.Cgroup_charge;
       ]);
  id

let cgroup_destroy t ctx ~cgroup =
  let ctx = { ctx with cgroup = Some cgroup } in
  (if t.config.Config.enable_cgroup_accounting then
     let cfg = t.config in
     (* rmdir: flush residual per-cpu stats into the shared subsystem
        state — work that grows with the live cgroup population, the
        same scaling the stats flusher pays — detach under the task
        list, then wait out a grace period before the css is freed. *)
     let flush_scale = 1.0 +. (float_of_int t.cgroups /. 64.0) in
     exec_program t ctx
       [
         Ops.With_lock
           ( Ops.Cgroup_css,
             Dist.scaled (2.0 *. flush_scale) cfg.Config.flusher_hold_per_cgroup,
             [ Ops.Lock (Ops.Tasklist, Dist.scaled 2.0 cfg.Config.cgroup_charge_slow_hold) ]
           );
         Ops.Rcu_sync;
       ]);
  (* Leave the accounting population (floor 0). *)
  t.cgroups <- max 0 (t.cgroups - 1)

type lock_report = {
  lock_name : string;
  acquisitions : int;
  contended : int;
  mean_wait_ns : float;
  max_wait_ns : float;
}

(* An untouched stripe would only contribute an empty [Welford], the
   merge identity, so folding over the created stripes reads exactly
   as folding over all of them. *)
let created s = List.filter_map Fun.id (Array.to_list s.slots)

let lock_contention_report t =
  let of_group name locks =
    let stats =
      List.fold_left
        (fun acc l -> Ksurf_util.Welford.merge acc (Lock.wait_stats l))
        (Ksurf_util.Welford.create ()) locks
    in
    let max_wait = Ksurf_util.Welford.max_value stats in
    {
      lock_name = name;
      acquisitions = List.fold_left (fun acc l -> acc + Lock.acquisitions l) 0 locks;
      contended =
        List.fold_left (fun acc l -> acc + Lock.contended_acquisitions l) 0 locks;
      mean_wait_ns = Ksurf_util.Welford.mean stats;
      max_wait_ns = (if Float.is_finite max_wait then Float.max 0.0 max_wait else 0.0);
    }
  in
  [
    of_group "tasklist" [ t.tasklist ];
    of_group "zone" [ t.zone ];
    of_group "dcache" [ t.dcache_lock ];
    of_group "journal" [ t.journal ];
    of_group "msgq_registry" [ t.msgq_registry ];
    of_group "cred" [ t.cred ];
    of_group "audit" [ t.audit ];
    of_group "cgroup_css" [ t.cgroup_css ];
    of_group "runqueue" (created t.runqueues);
    of_group "page_cache_tree" (created t.page_cache_tree);
    of_group "inode" (created t.inode);
    of_group "pipe" (created t.pipe);
    of_group "futex" (created t.futex);
  ]
