(* The BSP supervision loop: an elastic-membership, checkpointed
   re-synthesis of the 64-node run.

   Where [Cluster.run] collapses all iterations into one closed-form
   order statistic, the supervisor replays them superstep by superstep
   on a discrete-event engine: each live rank draws its iteration
   duration from the empirical pool, emits heartbeats in virtual time,
   and a monitor drives the phi-accrual detector.  That is what makes
   failures *mechanistic* rather than assumed — a crashed rank simply
   falls silent, suspicion accrues, and the recovery policy decides what
   the barrier waits for:

     Disabled     nothing recovers; a permanent crash wedges the
                  superstep and the engine watchdog converts the hang
                  into a diagnostic [Engine.Hung] abort.
     Survivors    a Dead verdict removes the rank; later supersteps
                  draw over the shrunken membership (degraded mode).
     Readmit      the rank restarts and re-enters after a configurable
                  downtime, paying a catch-up cost proportional to the
                  supersteps it missed.
     Speculative  a Suspect verdict immediately launches a backup
                  execution of the iteration; the rank completes at the
                  first finisher.

   Determinism discipline: every random draw (durations, backup
   durations, crash rolls) is taken from one supervisor PRNG stream in
   sorted-rank order *before* the superstep engine runs, so event
   interleavings never feed back into the stream.  All cross-superstep
   state lives in a [Checkpoint.state] record; each superstep runs on a
   fresh engine whose virtual time starts at 0.  Kill the process after
   any superstep, restore the last checkpoint, and the remaining
   supersteps re-execute bit-identically. *)

module Engine = Ksurf_sim.Engine
module Prng = Ksurf_util.Prng
module Plan = Ksurf_fault.Plan

type policy = Disabled | Survivors | Readmit | Speculative

let policy_name = function
  | Disabled -> "disabled"
  | Survivors -> "survivors"
  | Readmit -> "readmit"
  | Speculative -> "speculative"

type config = {
  nodes : int;
  iterations : int;  (* supersteps *)
  barrier_cost_ns : float;
  policy : policy;
  crash_rate : float;  (* per-rank per-superstep crash probability *)
  checkpoint_interval : int;  (* supersteps between checkpoints *)
  checkpoint_path : string option;
  seed : int;
}

let default_config =
  {
    nodes = 64;
    iterations = 50;
    barrier_cost_ns = 1_800.0 *. 6.0;
    policy = Survivors;
    crash_rate = 0.0;
    checkpoint_interval = 5;
    checkpoint_path = None;
    seed = 42;
  }

let heartbeat_interval_ns = 1.0e5

(* Readmit: a restarted rank re-enters after this many supersteps, and
   its rejoin iteration pays this many pool means per missed
   superstep. *)
let restart_supersteps = 1
let catchup_factor = 0.5

(* Watchdog slack over the worst-case superstep. *)
let deadline_factor = 8.0

type crash = { crash_rank : int; crash_superstep : int; crash_restart : bool }

(* Project a kfault plan's Rank_crash actions onto superstep indices:
   virtual crash times divide by the expected superstep length.  This is
   how the "crashy" preset reaches the supervisor. *)
let crashes_of_plan (plan : Plan.t) ~est_superstep_ns =
  if est_superstep_ns <= 0.0 then
    invalid_arg "Supervisor.crashes_of_plan: non-positive superstep estimate";
  List.filter_map
    (function
      | Plan.Rank_crash { Plan.rank; at_ns; restart_after_ns } ->
          Some
            {
              crash_rank = rank;
              crash_superstep = int_of_float (at_ns /. est_superstep_ns);
              crash_restart = restart_after_ns <> None;
            }
      | _ -> None)
    plan.Plan.actions

type outcome = {
  policy : string;
  nodes : int;
  supersteps : int;  (* completed; < iterations after a kill *)
  runtime_ns : float;
  straggler_factor : float;  (* mean superstep / mean pool iteration *)
  survivors : int;
  degraded : bool;
  crashes : int;
  restarts : int;
  backups : int;
  deaths : int;
  transitions : int;
  checkpoints : int;
  resumed_from : int;  (* superstep the run started at; 0 = fresh *)
}

(* One superstep on a fresh engine.  Returns the updated state. *)
let superstep ~config ~pool ~mean_pool ~planned ~rng ~on_engine
    (st : Checkpoint.state) =
  let s = st.superstep in
  let hb = heartbeat_interval_ns in
  (* Re-admit restarted ranks whose downtime has elapsed. *)
  let ready, waiting =
    List.partition
      (fun (r : Checkpoint.rejoin) -> r.Checkpoint.rj_superstep <= s)
      st.rejoins
  in
  let ready =
    List.sort (fun a b -> compare a.Checkpoint.rj_rank b.Checkpoint.rj_rank) ready
  in
  let membership =
    List.sort_uniq compare
      (st.membership @ List.map (fun r -> r.Checkpoint.rj_rank) ready)
  in
  if membership = [] then failwith "Supervisor: no live ranks remain";
  let restarts = ref st.restarts in
  let transitions = ref st.transitions in
  let n = Array.length pool in
  (* All randomness for the superstep, drawn up front in rank order. *)
  let draws =
    List.map
      (fun rank ->
        let d = pool.(Prng.int rng n) in
        let backup = pool.(Prng.int rng n) in
        let rolled = Prng.chance rng config.crash_rate in
        let frac = 0.05 +. (0.9 *. Prng.uniform rng) in
        let catchup =
          match
            List.find_opt (fun r -> r.Checkpoint.rj_rank = rank) ready
          with
          | Some r ->
              catchup_factor
              *. float_of_int (s - r.Checkpoint.rj_died_at)
              *. mean_pool
          | None -> 0.0
        in
        let from_plan =
          List.find_opt
            (fun c -> c.crash_rank = rank && c.crash_superstep = s)
            planned
        in
        let crashed, restartable =
          match from_plan with
          | Some c -> (true, c.crash_restart)
          | None -> (rolled, config.policy = Readmit)
        in
        (rank, d +. catchup, backup, crashed, restartable, frac))
      membership
  in
  let engine = Engine.create ~seed:(config.seed + s) () in
  on_engine engine;
  let emit_transition ~now ~pid ~rank ~from_v ~to_v ~incident =
    incr transitions;
    if Engine.observed engine then
      Engine.emit engine
        (Engine.Rank_transition
           {
             now;
             pid;
             rank;
             from_state = Detector.verdict_name from_v;
             to_state = Detector.verdict_name to_v;
             incident;
           })
  in
  (* Rejoin transitions close the incident opened at the crash. *)
  List.iter
    (fun (r : Checkpoint.rejoin) ->
      incr restarts;
      emit_transition ~now:0.0 ~pid:0 ~rank:r.Checkpoint.rj_rank
        ~from_v:Detector.Dead ~to_v:Detector.Alive
        ~incident:r.Checkpoint.rj_incident)
    ready;
  let det = Detector.create ~now:0.0 ~ranks:membership () in
  let remaining = ref (List.length membership) in
  let superstep_end = ref 0.0 in
  let finished = ref false in
  let complete_one () =
    decr remaining;
    if !remaining <= 0 then begin
      superstep_end := Engine.now engine;
      finished := true
    end
  in
  let crashes = ref st.crashes in
  let deaths = ref st.deaths in
  let backups = ref st.backups in
  let incidents = ref st.incidents in
  let incident_of_rank = Hashtbl.create 8 in
  let died_permanent = ref [] in
  let died_rejoin = ref [] in
  let takeovers = ref [] in
  (* Per-rank worker: heartbeat every interval until it finishes its
     iteration — or crashes, after which it falls silent forever and the
     detector takes over. *)
  List.iter
    (fun (rank, d, _backup, crashed, _restartable, frac) ->
      Engine.spawn engine (fun () ->
          let stop_at = if crashed then frac *. d else d in
          let rec loop () =
            let now = Engine.now engine in
            if now +. hb < stop_at then begin
              Engine.delay hb;
              Detector.heartbeat det ~rank ~now:(Engine.now engine);
              loop ()
            end
            else begin
              Engine.delay (Float.max 0.0 (stop_at -. now));
              if crashed then begin
                incr crashes;
                if Engine.observed engine then
                  Engine.emit engine
                    (Engine.Injected
                       {
                         now = Engine.now engine;
                         pid = Engine.current_pid engine;
                         fault = "rank-crash";
                         magnitude = float_of_int rank;
                       })
                (* no further heartbeats: silence is the crash signal *)
              end
              else begin
                Detector.retire det ~rank;
                complete_one ()
              end
            end
          in
          loop ()))
    draws;
  let incident_for rank =
    match Hashtbl.find_opt incident_of_rank rank with
    | Some i -> i
    | None ->
        let i = !incidents in
        incr incidents;
        Hashtbl.add incident_of_rank rank i;
        i
  in
  (* Monitor: poll the detector at twice the heartbeat rate, emit every
     transition, and apply the recovery policy on verdicts.  It also
     keeps the event heap populated, so a wedged superstep marches
     virtual time into the watchdog deadline instead of draining. *)
  Engine.spawn engine (fun () ->
      let rec loop () =
        if not !finished then begin
          Engine.delay (hb /. 2.0);
          let now = Engine.now engine in
          List.iter
            (fun (rank, from_v, to_v) ->
              let incident = incident_for rank in
              emit_transition ~now ~pid:(Engine.current_pid engine) ~rank
                ~from_v ~to_v ~incident;
              match to_v with
              | Detector.Suspect ->
                  if config.policy = Speculative then begin
                    let _, _, backup, _, _, _ =
                      List.find (fun (r, _, _, _, _, _) -> r = rank) draws
                    in
                    incr backups;
                    takeovers := (rank, incident) :: !takeovers;
                    Engine.spawn engine (fun () ->
                        Engine.delay backup;
                        complete_one ())
                  end
              | Detector.Dead -> (
                  incr deaths;
                  match config.policy with
                  | Disabled | Speculative -> ()
                  | Survivors ->
                      died_permanent := (rank, incident) :: !died_permanent;
                      complete_one ()
                  | Readmit ->
                      let _, _, _, _, restartable, _ =
                        List.find (fun (r, _, _, _, _, _) -> r = rank) draws
                      in
                      if restartable then
                        died_rejoin := (rank, incident) :: !died_rejoin
                      else died_permanent := (rank, incident) :: !died_permanent;
                      complete_one ())
              | Detector.Alive -> ())
            (Detector.evaluate det ~now);
          loop ()
        end
      in
      loop ());
  (* Watchdog: the worst legitimate superstep is bounded by the longest
     draw (plus a backup execution and the detection horizon); anything
     beyond the slack factor is a wedge and must abort, not spin. *)
  let worst_draw =
    List.fold_left (fun acc (_, d, b, _, _, _) -> Float.max acc (d +. b)) 0.0
      draws
  in
  let detection_horizon = Detector.dead_phi *. Float.log 10.0 *. hb *. 3.0 in
  let deadline =
    deadline_factor *. (worst_draw +. detection_horizon +. (4.0 *. hb))
  in
  Engine.run ~stop:(fun () -> !finished) ~deadline engine;
  (* Speculative takeovers leave the original rank Suspect or Dead in
     the detector; close the incident so the rank re-enters the next
     superstep Alive — the probe stream shows a full
     suspect -> [dead ->] alive episode. *)
  List.iter
    (fun (rank, incident) ->
      match Detector.state det ~rank with
      | Detector.Alive -> ()
      | v ->
          emit_transition ~now:!superstep_end ~pid:0 ~rank ~from_v:v
            ~to_v:Detector.Alive ~incident)
    (List.sort compare !takeovers);
  let died_permanent = List.sort compare !died_permanent in
  let died_rejoin = List.sort compare !died_rejoin in
  let gone = List.map fst died_permanent @ List.map fst died_rejoin in
  let membership' = List.filter (fun r -> not (List.mem r gone)) membership in
  let new_rejoins =
    List.map
      (fun (rank, incident) ->
        {
          Checkpoint.rj_rank = rank;
          rj_superstep = s + 1 + restart_supersteps;
          rj_incident = incident;
          rj_died_at = s;
        })
      died_rejoin
  in
  let prng_state, prng_seed = Prng.save rng in
  {
    st with
    Checkpoint.superstep = s + 1;
    runtime_ns = st.runtime_ns +. !superstep_end +. config.barrier_cost_ns;
    membership = membership';
    rejoins = waiting @ new_rejoins;
    incidents = !incidents;
    prng_state;
    prng_seed;
    crashes = !crashes;
    restarts = !restarts;
    backups = !backups;
    deaths = !deaths;
    transitions = !transitions;
    degraded = st.degraded || died_permanent <> [];
  }

let mean arr = Array.fold_left ( +. ) 0.0 arr /. float_of_int (Array.length arr)

let fresh_state ~config =
  let rng = Prng.split (Prng.create config.seed) "recov-supervisor" in
  let prng_state, prng_seed = Prng.save rng in
  {
    Checkpoint.superstep = 0;
    runtime_ns = 0.0;
    membership = List.init config.nodes (fun i -> i);
    rejoins = [];
    incidents = 0;
    prng_state;
    prng_seed;
    crashes = 0;
    restarts = 0;
    backups = 0;
    deaths = 0;
    transitions = 0;
    checkpoints = 0;
    degraded = false;
  }

let run ~pool ?(config = default_config) ?plan ?resume_from ?kill_after
    ?(on_engine = fun (_ : Engine.t) -> ()) () =
  if Array.length pool = 0 then invalid_arg "Supervisor.run: empty pool";
  if config.nodes < 1 then invalid_arg "Supervisor.run: need >= 1 node";
  if config.checkpoint_interval < 1 then
    invalid_arg "Supervisor.run: checkpoint_interval < 1";
  let mean_pool = mean pool in
  let planned =
    match plan with
    | None -> []
    | Some p ->
        crashes_of_plan p
          ~est_superstep_ns:(mean_pool +. config.barrier_cost_ns)
  in
  let st, resumed_from =
    match resume_from with
    | Some path when Sys.file_exists path -> (
        match Checkpoint.read ~path with
        | Ok st -> (st, st.Checkpoint.superstep)
        | Error msg -> failwith ("Supervisor.run: " ^ msg))
    | Some _ | None -> (fresh_state ~config, 0)
  in
  let st = ref st in
  let rng =
    Prng.restore ~state:!st.Checkpoint.prng_state
      ~seed:!st.Checkpoint.prng_seed
  in
  let executed = ref 0 in
  let killed = ref false in
  while (not !killed) && !st.Checkpoint.superstep < config.iterations do
    st :=
      superstep ~config ~pool ~mean_pool ~planned ~rng ~on_engine !st;
    (* Re-seed the working stream position into the state record only at
       checkpoint boundaries is not enough: [superstep] already saved
       the stream, so [!st] is always complete.  Persist on interval. *)
    (match config.checkpoint_path with
    | Some path
      when !st.Checkpoint.superstep mod config.checkpoint_interval = 0
           || !st.Checkpoint.superstep >= config.iterations ->
        st := { !st with Checkpoint.checkpoints = !st.Checkpoint.checkpoints + 1 };
        Checkpoint.write ~path !st
    | _ -> ());
    incr executed;
    match kill_after with
    | Some k when !executed >= k -> killed := true
    | _ -> ()
  done;
  let s = !st in
  let steps = s.Checkpoint.superstep in
  let straggler_factor =
    if steps = 0 then 0.0
    else
      ((s.Checkpoint.runtime_ns /. float_of_int steps) -. config.barrier_cost_ns)
      /. mean_pool
  in
  {
    policy = policy_name config.policy;
    nodes = config.nodes;
    supersteps = steps;
    runtime_ns = s.Checkpoint.runtime_ns;
    straggler_factor;
    survivors = List.length s.Checkpoint.membership;
    degraded = s.Checkpoint.degraded;
    crashes = s.Checkpoint.crashes;
    restarts = s.Checkpoint.restarts;
    backups = s.Checkpoint.backups;
    deaths = s.Checkpoint.deaths;
    transitions = s.Checkpoint.transitions;
    checkpoints = s.Checkpoint.checkpoints;
    resumed_from;
  }
