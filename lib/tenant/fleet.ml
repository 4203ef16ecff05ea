module Engine = Ksurf_sim.Engine
module Mailbox = Ksurf_sim.Mailbox
module Prng = Ksurf_util.Prng
module Dist = Ksurf_util.Dist
module Streamstat = Ksurf_stats.Streamstat
module P2 = Ksurf_stats.P2_quantile
module Instance = Ksurf_kernel.Instance
module Kernel = Ksurf_kernel.Kernel
module Config = Ksurf_kernel.Config
module Container = Ksurf_container.Container
module Vm = Ksurf_virt.Vm
module Spec = Ksurf_syscalls.Spec

type config = {
  tenants : int;
  churn_per_day : float;
  policy : Policy.t;
  seed : int;
  host_cores : int;
  day_ns : float;
  days : float;
  warmup_fraction : float;
  mean_rate_per_s : float;
  epoch_ns : float;
  slo_ns : float;
  request_target : int option;
}

let default_config =
  {
    tenants = 128;
    churn_per_day = 4.0;
    policy = Policy.Static Policy.Docker;
    seed = 42;
    host_cores = 64;
    day_ns = 2e9;
    days = 1.0;
    warmup_fraction = 0.1;
    mean_rate_per_s = 25.0;
    epoch_ns = 1e8;
    slo_ns = 2.5e5;
    request_target = None;
  }

(* One 256 GB host kernel per 128 tenant slots; every host and KVM
   guest runs the stock kernel. *)
let tenants_per_host = 128
let host_mem_mb = 262_144

(* The autoscaler's replica ceiling per tenant, which also sizes each
   tenant's guest kernel. *)
let max_replicas = 4

(* Epochs thinner than this are skipped; tenants thinner than this are
   left out of SLO attainment. *)
let min_epoch_samples = 8
let min_tenant_samples = 20

type result = {
  policy : string;
  tenants : int;
  churn_per_day : float;
  completed : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
  slo_ns : float;
  measured : int;
  slo_met : int;
  attainment : float;
  epoch_violations : int;
  arrivals : int;
  departures : int;
  cgroup_creates : int;
  cgroup_destroys : int;
  migrations : int;
  scale_ups : int;
  scale_downs : int;
  replica_imbalance : int;
  peak_cgroups : int;
  final_native : int;
  final_docker : int;
  final_kvm : int;
  final_mk : int;
  virtual_ns : float;
}

type host = { inst : Instance.t; mutable sharers : int }

type placement = Contained of host * Container.t | Virtual of Vm.t

type tenant = {
  id : int;
  profile : Workload.profile;
  client_rng : Prng.t;
  work_rng : Prng.t;
  mailbox : float Mailbox.t;
  placement : placement;
  mutable alive : bool;
  mutable target_replicas : int;
  mutable next_replica : int;  (* replica-id generator (core striping) *)
  mutable pending_retire : int;  (* scale-downs not yet honoured *)
  mutable serving : int;  (* replica fibers not yet retired *)
  lifetime_p99 : P2.t;  (* lifetime post-warmup latencies *)
  epoch_p99 : P2.t;  (* reset at every control epoch *)
  mutable epoch_count : int;
}

type t = {
  engine : Engine.t;
  cfg : config;
  hosts : host array;
  root_rng : Prng.t;
  churn_rng : Prng.t;
  t_end : float;
  warmup_end : float;
  (* Live tenants in admission order: [live.(0 .. live_count - 1)].
     Past the first [cfg.tenants], a tenant is admitted only after one
     has departed, so the array holds [cfg.tenants].  [depart] closes
     its gap and clears the freed slot. *)
  live : tenant option array;
  mutable live_count : int;
  (* Lifetime SLO verdicts folded in at departure, so departed tenant
     records can be dropped: fleet memory tracks the live population,
     not every tenant ever admitted. *)
  mutable departed_measured : int;
  mutable departed_slo_met : int;
  mutable next_tenant : int;
  mutable next_guest : int;
  fleet_stats : Streamstat.t;
  mutable completed : int;
  mutable arrivals : int;
  mutable departures : int;
  mutable cgroup_creates : int;
  mutable cgroup_destroys : int;
  mutable scale_ups : int;
  mutable scale_downs : int;
  mutable epoch_violations : int;
  mutable peak_cgroups : int;
}

let vm_boot_delay_ns = 25e6

let host_of t id = t.hosts.(id mod Array.length t.hosts)

let total_cgroups t =
  Array.fold_left (fun acc h -> acc + Instance.cgroup_count h.inst) 0 t.hosts

let refresh_sharers h = Instance.set_tenants h.inst h.sharers

(* The context tenant [id]'s cgroup storms run in. *)
let lifecycle_ctx t id =
  { Instance.core = id mod t.cfg.host_cores; tenant = id; key = 0; cgroup = None }

(* Placement transitions.  [place] and [release] must run inside a
   simulation process: the Docker paths execute the cgroup
   create/destroy storms on the shared host kernel, and a KVM guest
   waits out its boot. *)
let place t ~id (Policy.Static klass) =
  let h = host_of t id in
  match klass with
  | Policy.Docker ->
      h.sharers <- h.sharers + 1;
      refresh_sharers h;
      let cgroup = Instance.cgroup_create h.inst (lifecycle_ctx t id) in
      t.cgroup_creates <- t.cgroup_creates + 1;
      t.peak_cgroups <- max t.peak_cgroups (total_cgroups t);
      Contained (h, Container.launch ~host:h.inst ~cgroup)
  | Policy.Kvm ->
      let id = t.next_guest in
      t.next_guest <- t.next_guest + 1;
      let vm =
        Vm.boot ~engine:t.engine ~host_block:(Instance.block_dev h.inst) ~id
          { Vm.vcpus = max_replicas; mem_mb = 2048 }
      in
      Engine.delay vm_boot_delay_ns;
      Virtual vm

let release t (tn : tenant) =
  match tn.placement with
  | Contained (h, ctr) ->
      Instance.cgroup_destroy h.inst (lifecycle_ctx t tn.id) ~cgroup:(Container.cgroup ctr);
      t.cgroup_destroys <- t.cgroup_destroys + 1;
      h.sharers <- max 0 (h.sharers - 1);
      refresh_sharers h
  | Virtual vm ->
      (* Decommission the abandoned guest: its daemons exit at their
         next wakeup, so retired kernels stop generating events. *)
      Vm.shutdown vm

let exec_request t (tn : tenant) ~replica =
  let spec, arg, key = Workload.pick_request tn.profile tn.work_rng in
  let ops = spec.Spec.ops arg in
  match tn.placement with
  | Contained (_, ctr) ->
      Container.exec_syscall ctr
        (Container.context ctr
           ~core:((tn.id + replica) mod t.cfg.host_cores)
           ~tenant:tn.id ~key)
        ops
  | Virtual vm ->
      Vm.exec_syscall vm
        { Instance.core = replica mod max_replicas; tenant = tn.id; key; cgroup = None }
        ops

let hit_request_target t =
  match t.cfg.request_target with
  | Some n -> t.completed >= n
  | None -> false

let spawn_replica t (tn : tenant) =
  let replica = tn.next_replica in
  tn.next_replica <- tn.next_replica + 1;
  tn.serving <- tn.serving + 1;
  Engine.spawn t.engine (fun () ->
      let rec serve () =
        let arrival = Mailbox.recv tn.mailbox in
        if not tn.alive then ()
        else if tn.pending_retire > 0 then begin
          (* Scaled down: retirement is by count, not by replica id —
             whichever replica sees the next request consumes one retire
             token, hands the request back for a survivor, and exits.
             Replicas spawned by a later scale-up therefore always
             serve: [serving - pending_retire] tracks [target_replicas]
             exactly (the [replica_imbalance] result field asserts
             this). *)
          tn.pending_retire <- tn.pending_retire - 1;
          tn.serving <- tn.serving - 1;
          Mailbox.send tn.mailbox arrival
        end
        else begin
          exec_request t tn ~replica;
          let now = Engine.now t.engine in
          let latency = now -. arrival in
          t.completed <- t.completed + 1;
          if now >= t.warmup_end then begin
            P2.add tn.lifetime_p99 latency;
            Streamstat.add t.fleet_stats latency;
            P2.add tn.epoch_p99 latency;
            tn.epoch_count <- tn.epoch_count + 1
          end;
          serve ()
        end
      in
      serve ())

let spawn_client t (tn : tenant) =
  Engine.spawn t.engine (fun () ->
      let rec loop () =
        if tn.alive && not (hit_request_target t) then begin
          let gap =
            Workload.next_gap tn.profile ~day_ns:t.cfg.day_ns tn.client_rng
              ~now:(Engine.now t.engine)
          in
          Engine.delay gap;
          if tn.alive then begin
            Mailbox.send tn.mailbox (Engine.now t.engine);
            loop ()
          end
        end
      in
      loop ())

let remove_live t tn =
  let holds i = match t.live.(i) with Some other -> other == tn | None -> false in
  let i = ref 0 in
  while !i < t.live_count && not (holds !i) do
    incr i
  done;
  if !i < t.live_count then begin
    Array.blit t.live (!i + 1) t.live !i (t.live_count - !i - 1);
    t.live_count <- t.live_count - 1;
    t.live.(t.live_count) <- None
  end

let fold_live t f acc =
  let acc = ref acc in
  for i = 0 to t.live_count - 1 do
    match t.live.(i) with Some tn -> acc := f !acc tn | None -> ()
  done;
  !acc

(* The lifetime SLO verdict: a tenant is judged once it has enough
   post-warmup samples, and meets the SLO when its p99 does. *)
let is_measured tn = P2.count tn.lifetime_p99 >= min_tenant_samples

let meets_slo (cfg : config) tn =
  let p99 = if P2.count tn.lifetime_p99 = 0 then 0.0 else P2.value tn.lifetime_p99 in
  p99 <= cfg.slo_ns

(* Admission must run inside a simulation process (placement storms). *)
let admit t =
  let id = t.next_tenant in
  t.next_tenant <- t.next_tenant + 1;
  let name = "tenant-" ^ string_of_int id in
  let rng = Prng.split t.root_rng name in
  let profile =
    Workload.make ~rng:(Prng.split rng "profile") ~day_ns:t.cfg.day_ns
      ~horizon_ns:t.t_end ~mean_rate_per_s:t.cfg.mean_rate_per_s
  in
  let mailbox = Mailbox.create ~engine:t.engine ~name in
  let placement = place t ~id t.cfg.policy in
  let tn =
    {
      id;
      profile;
      client_rng = Prng.split rng "client";
      work_rng = Prng.split rng "work";
      mailbox;
      placement;
      alive = true;
      target_replicas = 1;
      next_replica = 0;
      pending_retire = 0;
      serving = 0;
      lifetime_p99 = P2.create 0.99;
      epoch_p99 = P2.create 0.99;
      epoch_count = 0;
    }
  in
  t.live.(t.live_count) <- Some tn;
  t.live_count <- t.live_count + 1;
  t.arrivals <- t.arrivals + 1;
  spawn_client t tn;
  spawn_replica t tn;
  tn

(* Returns whether the tenant was actually torn down: a lifecycle fiber
   may race another that picked the same victim, and the loser's depart
   is a no-op. *)
let depart t (tn : tenant) =
  if not tn.alive then false
  else begin
    tn.alive <- false;
    release t tn;
    (* Wake every replica blocked on the mailbox so the serving fibers
       exit instead of suspending forever (the timestamp is never read
       once [alive] is false).  Surplus wakeups — replicas that already
       retired on scale-down — just sit in the queue and are collected
       with it. *)
    for _ = 1 to tn.next_replica do
      Mailbox.send tn.mailbox (Engine.now t.engine)
    done;
    (* Fold the lifetime SLO verdict now and drop the record. *)
    if is_measured tn then begin
      t.departed_measured <- t.departed_measured + 1;
      if meets_slo t.cfg tn then t.departed_slo_met <- t.departed_slo_met + 1
    end;
    remove_live t tn;
    t.departures <- t.departures + 1;
    true
  end

(* The per-epoch SLO control loop: scale out a violating tenant until
   it hits the replica ceiling; scale quiet tenants back in. *)
let control_tenant t tn =
  if tn.alive then begin
    if tn.epoch_count >= min_epoch_samples then begin
      let p99 = P2.value tn.epoch_p99 in
      if p99 > t.cfg.slo_ns then begin
        t.epoch_violations <- t.epoch_violations + 1;
        if tn.target_replicas < max_replicas then begin
          tn.target_replicas <- tn.target_replicas + 1;
          (* An unconsumed retire token cancels against the new
             capacity; only spawn when every live fiber is staying. *)
          if tn.pending_retire > 0 then
            tn.pending_retire <- tn.pending_retire - 1
          else spawn_replica t tn;
          t.scale_ups <- t.scale_ups + 1
        end
      end
      else if p99 < t.cfg.slo_ns /. 4.0 && tn.target_replicas > 1 then begin
        tn.target_replicas <- tn.target_replicas - 1;
        tn.pending_retire <- tn.pending_retire + 1;
        t.scale_downs <- t.scale_downs + 1
      end
    end;
    P2.reset tn.epoch_p99;
    tn.epoch_count <- 0
  end

(* Nothing in an epoch yields, so it walks [t.live] in place, in
   admission order. *)
let control_epoch t =
  for i = 0 to t.live_count - 1 do
    match t.live.(i) with Some tn -> control_tenant t tn | None -> ()
  done

let create ?(on_engine = fun (_ : Engine.t) -> ()) (cfg : config) =
  if cfg.tenants < 1 then invalid_arg "Fleet.create: tenants must be >= 1";
  if cfg.churn_per_day < 0.0 then
    invalid_arg "Fleet.create: churn must be >= 0";
  let engine = Engine.create ~seed:cfg.seed () in
  on_engine engine;
  let host_count = max 1 ((cfg.tenants + tenants_per_host - 1) / tenants_per_host) in
  let hosts =
    Array.init host_count (fun i ->
        {
          inst =
            Kernel.boot ~engine ~config:Config.default ~id:i
              ~cores:cfg.host_cores ~mem_mb:host_mem_mb ();
          sharers = 0;
        })
  in
  let root_rng = Prng.split (Engine.rng engine) "ktenant" in
  let t_end = cfg.days *. cfg.day_ns in
  {
    engine;
    cfg;
    hosts;
    root_rng;
    churn_rng = Prng.split root_rng "churn";
    t_end;
    warmup_end = cfg.warmup_fraction *. t_end;
    live = Array.make cfg.tenants None;
    live_count = 0;
    departed_measured = 0;
    departed_slo_met = 0;
    next_tenant = 0;
    next_guest = 0;
    fleet_stats = Streamstat.streaming ();
    completed = 0;
    arrivals = 0;
    departures = 0;
    cgroup_creates = 0;
    cgroup_destroys = 0;
    scale_ups = 0;
    scale_downs = 0;
    epoch_violations = 0;
    peak_cgroups = 0;
  }

let run ?on_engine (cfg : config) =
  let t = create ?on_engine cfg in
  let engine = t.engine in
  (* Staggered boot storm: admissions spread over half the warmup, so
     the churny steady state — not a thundering herd at t=0 — is what
     the measured phase sees. *)
  let stagger = t.warmup_end /. (2.0 *. float_of_int cfg.tenants) in
  (* One admission fiber per tenant: VM boot delays overlap instead of
     serialising behind a single admission loop — 512 KVM tenants boot
     in a staggered wave, not a 13-virtual-second queue. *)
  for i = 0 to cfg.tenants - 1 do
    Engine.spawn ~at:(float_of_int i *. stagger) engine (fun () ->
        ignore (admit t : tenant))
  done;
  if cfg.churn_per_day > 0.0 then begin
    let mean_gap = cfg.day_ns /. (cfg.churn_per_day *. float_of_int cfg.tenants) in
    let gap_dist = Dist.exponential ~mean:mean_gap in
    Engine.spawn engine (fun () ->
        let rec loop () =
          Engine.delay (Dist.sample gap_dist t.churn_rng);
          if Engine.now engine < t.t_end && not (hit_request_target t) then begin
            (* Victim choice stays in this fiber (it owns churn_rng);
               the lifecycle work itself — teardown storm, replacement
               boot — runs in its own fiber so slow placements (VM
               boot) don't throttle the churn rate. *)
            let victim =
              if t.live_count = 0 then None
              else t.live.(Prng.int t.churn_rng t.live_count)
            in
            (* A lifecycle event replaces a tenant, so it admits only
               when it actually tore one down.  Both guarded cases would
               otherwise drift the live population above the steady
               state for good: an event firing before the first
               admission finishes its boot delay finds no live tenant,
               and an earlier fiber may still be mid-teardown on the
               same victim (depart yields during the storm before
               removing it from [t.live]), making the loser's depart a
               no-op. *)
            (match victim with
            | Some tn ->
                Engine.spawn engine (fun () -> if depart t tn then ignore (admit t : tenant))
            | None -> ());
            loop ()
          end
        in
        loop ())
  end;
  Engine.spawn engine (fun () ->
      let rec loop () =
        Engine.delay cfg.epoch_ns;
        if Engine.now engine < t.t_end then begin
          control_epoch t;
          loop ()
        end
      in
      loop ());
  Engine.run ~until:t.t_end ~stop:(fun () -> hit_request_target t) engine;
  let measured =
    fold_live t (fun acc tn -> if is_measured tn then acc + 1 else acc) t.departed_measured
  and slo_met =
    fold_live t
      (fun acc tn -> if is_measured tn && meets_slo cfg tn then acc + 1 else acc)
      t.departed_slo_met
  in
  let count_final on_class =
    fold_live t (fun acc tn -> if tn.alive && on_class tn.placement then acc + 1 else acc) 0
  in
  let n = Streamstat.count t.fleet_stats in
  {
    policy = Policy.name cfg.policy;
    tenants = cfg.tenants;
    churn_per_day = cfg.churn_per_day;
    completed = t.completed;
    mean = (if n = 0 then 0.0 else Streamstat.mean t.fleet_stats);
    p50 = Streamstat.p50 t.fleet_stats;
    p95 = Streamstat.p95 t.fleet_stats;
    p99 = Streamstat.p99 t.fleet_stats;
    max = (if n = 0 then 0.0 else Streamstat.max_value t.fleet_stats);
    slo_ns = cfg.slo_ns;
    measured;
    slo_met;
    attainment =
      (if measured = 0 then 0.0 else float_of_int slo_met /. float_of_int measured);
    epoch_violations = t.epoch_violations;
    arrivals = t.arrivals;
    departures = t.departures;
    cgroup_creates = t.cgroup_creates;
    cgroup_destroys = t.cgroup_destroys;
    migrations = 0;
    scale_ups = t.scale_ups;
    scale_downs = t.scale_downs;
    replica_imbalance =
      (* Autoscaler soundness: for every live tenant the replica fibers
         still serving, net of unconsumed retire tokens, must equal the
         target — a scale-up after a scale-down really added capacity. *)
      fold_live t
        (fun acc tn ->
          if tn.alive then
            acc + abs ((tn.serving - tn.pending_retire) - tn.target_replicas)
          else acc)
        0;
    peak_cgroups = t.peak_cgroups;
    final_native = 0;
    final_docker = count_final (function Contained _ -> true | Virtual _ -> false);
    final_kvm = count_final (function Virtual _ -> true | Contained _ -> false);
    final_mk = 0;
    virtual_ns = Engine.now engine;
  }
