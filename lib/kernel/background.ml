module Engine = Ksurf_sim.Engine
module Lock = Ksurf_sim.Lock
module Dist = Ksurf_util.Dist
module Prng = Ksurf_util.Prng

(* Each daemon is an infinite loop in virtual time: sleep for a sampled
   interval, then do a batch of housekeeping sized by the activity that
   accumulated since its last pass — an idle kernel commits nothing,
   scans nothing, balances nothing.  Hold times additionally scale with
   the instance's surface area (more cores -> more runqueues and dirtier
   journals, more memory -> longer reclaim scans), which is how smaller
   kernel surface areas shrink the collision tails without any workload
   change. *)

(* "Forever" until the instance is halted: a decommissioned guest's
   daemons exit at their next wakeup, so retired kernels stop
   generating events. *)
let forever ~inst ~interval ~rng body =
  let rec loop () =
    Engine.delay (Dist.sample interval rng);
    if not (Instance.halted inst) then begin
      body ();
      loop ()
    end
  in
  loop

(* Activity factor: fraction of a "full" batch, where full corresponds
   to [per_core_threshold] ops per core since the last pass. *)
let activity_factor inst cls ~per_core_threshold =
  let delta = Instance.take_activity inst cls in
  let full = per_core_threshold *. float_of_int (Instance.cores inst) in
  Float.min 1.0 (float_of_int delta /. Float.max 1.0 full)

let ctx0 = { Instance.core = 0; tenant = 0; key = 0; cgroup = None }

let hold_lock inst lock_ref hold =
  if hold > 0.0 then begin
    let l = Instance.lock inst ctx0 lock_ref in
    Lock.acquire l;
    Engine.delay hold;
    Lock.release l
  end

(* Journal commit: work proportional to metadata dirtied since the last
   commit, bounded by a surface-area-scaled full-commit time. *)
let journal_daemon inst rng () =
  let cfg = Instance.config inst in
  let size_scale = Float.max 0.02 (float_of_int (Instance.cores inst) /. 64.0) in
  let factor = activity_factor inst Instance.Fs_activity ~per_core_threshold:250.0 in
  let hold =
    Dist.sample cfg.Config.journal_commit_hold rng
    *. size_scale *. factor
    *. Instance.daemon_hold_mult inst ~daemon:"jbd2"
  in
  hold_lock inst Ops.Journal hold

(* Reclaim: scan length follows allocation pressure and the memory the
   instance manages. *)
let kswapd_daemon inst rng () =
  let cfg = Instance.config inst in
  let size_scale = Float.max 0.02 (float_of_int (Instance.mem_mb inst) /. 32768.0) in
  let factor = activity_factor inst Instance.Mm_activity ~per_core_threshold:400.0 in
  let hold =
    Dist.sample cfg.Config.kswapd_hold rng
    *. size_scale *. factor
    *. Instance.daemon_hold_mult inst ~daemon:"kswapd"
  in
  hold_lock inst Ops.Zone hold

(* Load balancing: a task-list sweep whose length grows with the core
   count and recent scheduling churn, then a brief visit to each
   runqueue. *)
let balancer_daemon inst rng () =
  let cfg = Instance.config inst in
  let factor = activity_factor inst Instance.Sched_activity ~per_core_threshold:150.0 in
  let storm = Instance.daemon_hold_mult inst ~daemon:"load_balancer" in
  let sweep =
    float_of_int (Instance.cores inst)
    *. Dist.sample cfg.Config.balancer_hold_per_core rng
    *. factor *. storm
  in
  hold_lock inst Ops.Tasklist sweep;
  if factor > 0.01 then
    for core = 0 to Instance.cores inst - 1 do
      let ctx = { Instance.core; tenant = 0; key = 0; cgroup = None } in
      let rq = Instance.lock inst ctx Ops.Runqueue in
      Lock.acquire rq;
      Engine.delay
        (Dist.sample cfg.Config.balancer_hold_per_core rng *. factor *. storm);
      Lock.release rq
    done

(* Flushing per-cgroup statistics serialises on the css lock for a time
   proportional to the cgroup count and recent charge traffic — the
   Table 3 mechanism. *)
let flusher_daemon inst rng () =
  let cfg = Instance.config inst in
  let n = Instance.cgroup_count inst in
  if cfg.Config.enable_cgroup_accounting && n > 0 then begin
    let factor =
      activity_factor inst Instance.Charge_activity ~per_core_threshold:50.0
    in
    let hold =
      Dist.sample cfg.Config.flusher_hold_per_cgroup rng
      *. float_of_int n *. factor
      *. Instance.daemon_hold_mult inst ~daemon:"cgroup_flusher"
    in
    hold_lock inst Ops.Cgroup_css hold
  end

let start inst =
  let cfg = Instance.config inst in
  if cfg.Config.enable_background then begin
    let engine = Instance.engine inst in
    let spawn name interval body =
      let rng = Prng.split (Instance.rng inst) name in
      (* Desynchronise daemons across instances with a random phase. *)
      let phase = Prng.float rng (Dist.mean_estimate interval) in
      Engine.spawn engine (fun () ->
          Engine.delay phase;
          forever ~inst ~interval ~rng (body inst rng) ())
    in
    (* Per-daemon switches: a specialized kernel spawns only the
       daemons its retained syscall categories need. *)
    if cfg.Config.enable_journal_daemon then
      spawn "jbd2" cfg.Config.journal_commit_interval journal_daemon;
    if cfg.Config.enable_kswapd then
      spawn "kswapd" cfg.Config.kswapd_interval kswapd_daemon;
    if cfg.Config.enable_load_balancer then
      spawn "load_balancer" cfg.Config.balancer_interval balancer_daemon;
    if cfg.Config.enable_stat_flusher then
      spawn "cgroup_flusher" cfg.Config.flusher_interval flusher_daemon
  end
