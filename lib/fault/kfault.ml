module Engine = Ksurf_sim.Engine
module Instance = Ksurf_kernel.Instance
module Category = Ksurf_kernel.Category
module Spec = Ksurf_syscalls.Spec
module Env = Ksurf_env.Env
module Prng = Ksurf_util.Prng

type stats = {
  syscall_faults : int;
  lock_preemptions : int;
  device_stalls : int;
  daemon_storm_passes : int;
  ipi_storms : int;
  cache_flushes : int;
  slow_memory_windows : int;
}

type counters = {
  mutable c_syscall : int;
  mutable c_preempt : int;
  mutable c_stall : int;
  mutable c_daemon : int;
  mutable c_ipi : int;
  mutable c_flush : int;
  mutable c_slowmem : int;
}

type t = {
  env : Env.t;
  counters : counters;
  mutable active : bool;
}

let inject engine fault magnitude =
  if Engine.observed engine then
    Engine.emit engine
      (Engine.Injected
         {
           now = Engine.now engine;
           pid = Engine.current_pid engine;
           fault;
           magnitude;
         })

(* --- plan decomposition ----------------------------------------------- *)

let category_rates actions =
  let rates = Array.make 6 0.0 in
  let eintr = ref 0.3 in
  let any = ref false in
  List.iter
    (function
      | Plan.Syscall_failures { rates = rs; eintr_share } ->
          any := true;
          eintr := eintr_share;
          List.iter
            (fun (c, r) ->
              let i = Category.index c in
              rates.(i) <- Float.min 1.0 (rates.(i) +. r))
            rs
      | _ -> ())
    actions;
  if !any then Some (rates, !eintr) else None

let daemon_mults actions =
  let m = ref None in
  List.iter
    (function
      | Plan.Daemon_storm d ->
          let prev =
            Option.value !m
              ~default:
                {
                  Plan.jbd2 = 1.0;
                  kswapd = 1.0;
                  load_balancer = 1.0;
                  cgroup_flusher = 1.0;
                }
          in
          m :=
            Some
              {
                Plan.jbd2 = prev.Plan.jbd2 *. d.Plan.jbd2;
                kswapd = prev.Plan.kswapd *. d.Plan.kswapd;
                load_balancer = prev.Plan.load_balancer *. d.Plan.load_balancer;
                cgroup_flusher =
                  prev.Plan.cgroup_flusher *. d.Plan.cgroup_flusher;
              }
      | _ -> ())
    actions;
  !m

(* The acquire hook's two walks, closure-free: one chance per action,
   in plan order. *)
let rec preempt engine rng counters = function
  | [] -> ()
  | (p : Plan.lock_preemption) :: rest ->
      if Prng.chance rng p.Plan.probability then begin
        counters.c_preempt <- counters.c_preempt + 1;
        inject engine "lock-preemption" p.Plan.stretch_ns;
        Engine.delay p.Plan.stretch_ns
      end;
      preempt engine rng counters rest

let rec stall engine rng counters = function
  | [] -> ()
  | (probability, stall_ns) :: rest ->
      if Prng.chance rng probability then begin
        counters.c_stall <- counters.c_stall + 1;
        inject engine "device-stall" stall_ns;
        Engine.delay stall_ns
      end;
      stall engine rng counters rest

(* --- hook installation ------------------------------------------------ *)

let arm ~env ~plan ~seed () =
  let engine = Env.engine env in
  let root = Prng.create seed in
  let counters =
    {
      c_syscall = 0;
      c_preempt = 0;
      c_stall = 0;
      c_daemon = 0;
      c_ipi = 0;
      c_flush = 0;
      c_slowmem = 0;
    }
  in
  let t = { env; counters; active = true } in
  (* 1. Transient syscall failures, via the env fault control. *)
  (match category_rates plan.Plan.actions with
  | None -> ()
  | Some (rates, eintr_share) ->
      let rng = Prng.split root "kfault-syscalls" in
      Env.set_fault_ctl env
        (Some
           (fun ~rank:_ (spec : Spec.t) ->
             if not t.active then None
             else
               let rate =
                 List.fold_left
                   (fun acc c -> Float.max acc rates.(Category.index c))
                   0.0 spec.Spec.categories
               in
               if rate > 0.0 && Prng.chance rng rate then begin
                 let errno =
                   if Prng.chance rng eintr_share then Env.EINTR else Env.EAGAIN
                 in
                 counters.c_syscall <- counters.c_syscall + 1;
                 inject engine
                   (match errno with
                   | Env.EAGAIN -> "syscall-eagain"
                   | Env.EINTR -> "syscall-eintr")
                   rate;
                 Some errno
               end
               else None)));
  (* 2. Lock-holder preemption and device stalls, via the engine acquire
     hook. *)
  let preemptions =
    List.filter_map
      (function Plan.Lock_preemption p -> Some p | _ -> None)
      plan.Plan.actions
  in
  let stalls =
    List.filter_map
      (function
        | Plan.Device_stall { probability; stall_ns } ->
            Some (probability, stall_ns)
        | _ -> None)
      plan.Plan.actions
  in
  if preemptions <> [] || stalls <> [] then begin
    let rng = Prng.split root "kfault-preempt" in
    (* Each lock name's matching preemptions, in plan order, resolved on
       the name's first acquisition: a later one is a hashtable hit. *)
    let matching = Hashtbl.create 64 in
    let preemptions_of name =
      match Hashtbl.find matching name with
      | ps -> ps
      | exception Not_found ->
          let cls = Ksurf_sim.Lock.class_of_name name in
          let ps =
            List.filter (fun (p : Plan.lock_preemption) -> p.Plan.lock_class = cls) preemptions
          in
          Hashtbl.add matching name ps;
          ps
    in
    Engine.set_acquire_hook engine
      (Some
         (fun site name ->
           if t.active then
             match site with
             | Engine.Lock_site -> preempt engine rng counters (preemptions_of name)
             | Engine.Resource_site -> stall engine rng counters stalls))
  end;
  (* 3. Daemon storms: per-instance hold multipliers consulted by
     Background on every housekeeping pass. *)
  (match daemon_mults plan.Plan.actions with
  | None -> ()
  | Some m ->
      let mult_of = function
        | "jbd2" -> m.Plan.jbd2
        | "kswapd" -> m.Plan.kswapd
        | "load_balancer" -> m.Plan.load_balancer
        | "cgroup_flusher" -> m.Plan.cgroup_flusher
        | _ -> 1.0
      in
      List.iter
        (fun inst ->
          Instance.set_daemon_hold_mult inst
            (Some
               (fun daemon ->
                 if not t.active then 1.0
                 else begin
                   let mult = mult_of daemon in
                   if mult <> 1.0 then begin
                     counters.c_daemon <- counters.c_daemon + 1;
                     inject engine ("daemon-storm-" ^ daemon) mult
                   end;
                   mult
                 end)))
        (Env.instances env));
  (* 4. Periodic storm processes, one set per kernel instance.  The
     phase jitter desynchronises instances, from a per-instance split so
     instance count changes never perturb other streams. *)
  let each_instance label f =
    List.iteri
      (fun i inst ->
        let rng = Prng.split root (Printf.sprintf "kfault-%s-%d" label i) in
        Engine.spawn engine (fun () -> f inst rng))
      (Env.instances env)
  in
  List.iter
    (function
      | Plan.Ipi_storm { period_ns } ->
          each_instance "ipi" (fun inst rng ->
              let ctx =
                { Instance.core = 0; tenant = 0; key = 0; cgroup = None }
              in
              Engine.delay (Prng.float rng period_ns);
              let rec loop () =
                if t.active then begin
                  counters.c_ipi <- counters.c_ipi + 1;
                  inject engine "ipi-storm" 1.0;
                  Instance.exec_op inst ctx Ksurf_kernel.Ops.Tlb_shootdown;
                  Engine.delay period_ns;
                  loop ()
                end
              in
              loop ())
      | Plan.Cache_flush_storm { period_ns; window_ns; pressure } ->
          each_instance "flush" (fun inst rng ->
              Engine.delay (Prng.float rng period_ns);
              let rec loop () =
                if t.active then begin
                  counters.c_flush <- counters.c_flush + 1;
                  inject engine "cache-flush" pressure;
                  Instance.set_cache_pressure inst pressure;
                  Engine.delay window_ns;
                  Instance.set_cache_pressure inst 0.0;
                  Engine.delay period_ns;
                  loop ()
                end
              in
              loop ())
      | Plan.Slow_memory { period_ns; window_ns; dilation } ->
          each_instance "slowmem" (fun inst rng ->
              Engine.delay (Prng.float rng period_ns);
              let rec loop () =
                if t.active then begin
                  counters.c_slowmem <- counters.c_slowmem + 1;
                  inject engine "slow-memory" dilation;
                  Instance.set_burn_mult inst dilation;
                  Engine.delay window_ns;
                  Instance.set_burn_mult inst 1.0;
                  Engine.delay period_ns;
                  loop ()
                end
              in
              loop ())
      | Plan.Syscall_failures _ | Plan.Daemon_storm _ | Plan.Lock_preemption _
      | Plan.Device_stall _ ->
          ())
    plan.Plan.actions;
  t

let disarm t =
  if t.active then begin
    t.active <- false;
    Env.set_fault_ctl t.env None;
    Engine.set_acquire_hook (Env.engine t.env) None;
    List.iter
      (fun inst ->
        Instance.set_daemon_hold_mult inst None;
        Instance.set_burn_mult inst 1.0;
        Instance.set_cache_pressure inst 0.0)
      (Env.instances t.env)
  end

let stats t =
  {
    syscall_faults = t.counters.c_syscall;
    lock_preemptions = t.counters.c_preempt;
    device_stalls = t.counters.c_stall;
    daemon_storm_passes = t.counters.c_daemon;
    ipi_storms = t.counters.c_ipi;
    cache_flushes = t.counters.c_flush;
    slow_memory_windows = t.counters.c_slowmem;
  }

let total_injections t =
  let s = stats t in
  s.syscall_faults + s.lock_preemptions + s.device_stalls
  + s.daemon_storm_passes + s.ipi_storms + s.cache_flushes
  + s.slow_memory_windows

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>syscall faults        %d@,\
     lock preemptions      %d@,\
     device stalls         %d@,\
     daemon storm passes   %d@,\
     ipi storms            %d@,\
     cache-flush windows   %d@,\
     slow-memory windows   %d@]"
    s.syscall_faults s.lock_preemptions s.device_stalls s.daemon_storm_passes
    s.ipi_storms s.cache_flushes s.slow_memory_windows
