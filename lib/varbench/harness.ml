module Engine = Ksurf_sim.Engine
module Env = Ksurf_env.Env
module Barrier = Ksurf_sim.Barrier
module Program = Ksurf_syzgen.Program
module Corpus = Ksurf_syzgen.Corpus

type params = { iterations : int; warmup_iterations : int }

let default_params = { iterations = 20; warmup_iterations = 2 }

module Streamstat = Ksurf_stats.Streamstat

type site = {
  program : int;
  index : int;
  syscall : Ksurf_syscalls.Spec.t;
  stats : Streamstat.t;
}

type result = {
  sites : site array;
  overall : Streamstat.t;
  ranks : int;
  iterations : int;
  wall_time_ns : float;
  degraded : bool;
  survivors : int;
  dropped_ranks : int list;
  transient_retries : int;
  abandoned_calls : int;
  denied_calls : int;
}

let total_invocations r =
  Array.fold_left (fun acc s -> acc + Streamstat.count s.stats) 0 r.sites

exception Rank_stopped

let run ~env ~corpus ?(params = default_params) ?straggler_timeout_ns () =
  if params.iterations < 1 then invalid_arg "Harness.run: iterations must be >= 1";
  let engine = Env.engine env in
  let ranks = Env.rank_count env in
  let programs = Corpus.programs corpus in
  (* Flat site table: sites.(site_offset program + call index). *)
  let offsets = Array.make (Array.length programs) 0 in
  let total_sites = ref 0 in
  Array.iteri
    (fun pi p ->
      offsets.(pi) <- !total_sites;
      total_sites := !total_sites + Program.length p)
    programs;
  let sites = Array.make !total_sites None in
  Array.iteri
    (fun pi (p : Program.t) ->
      List.iteri
        (fun ci (c : Program.call) ->
          sites.(offsets.(pi) + ci) <-
            Some
              {
                program = p.Program.id;
                index = ci;
                syscall = c.Program.spec;
                stats = Streamstat.create ();
              })
        p.Program.calls)
    programs;
  let sites =
    Array.map (function Some s -> s | None -> assert false) sites
  in
  let overall = Streamstat.streaming () in
  let barrier = Barrier.create ~engine ~name:"varbench" ~parties:ranks in
  let barrier_cost = Env.barrier_cost_per_party env in
  let finished = ref 0 in
  let measure_start = ref nan in
  let total_iters = params.warmup_iterations + params.iterations in
  (* Robustness state: a rank is [alive] until it crashes (fault plan)
     or is dropped as a straggler (watchdog); [waiting] marks ranks
     parked at the barrier so the watchdog never drops a rank that is
     merely waiting for someone slower. *)
  let alive = Array.make ranks true in
  let waiting = Array.make ranks false in
  let completed = Array.make ranks false in
  let progress = Array.make ranks 0.0 in
  let dropped = ref [] in
  let dropped_count = ref 0 in
  let counters = Retry.counters () in
  let drop rank fault =
    if alive.(rank) then begin
      alive.(rank) <- false;
      dropped := rank :: !dropped;
      incr dropped_count;
      if Engine.observed engine then
        Engine.emit engine
          (Engine.Injected
             {
               now = Engine.now engine;
               pid = Engine.current_pid engine;
               fault;
               magnitude = float_of_int rank;
             });
      (* Departing shrinks the barrier so survivors keep running; the
         last survivor has nobody left to release. *)
      if Barrier.parties barrier > 1 then Barrier.depart barrier
    end
  in
  for rank = 0 to ranks - 1 do
    Engine.spawn engine (fun () ->
        let crash_at = Env.crash_time_of_rank env ~rank in
        let crashed () =
          match crash_at with
          | Some at -> Engine.now engine >= at
          | None -> false
        in
        (* A program's calls in order, defined once per rank: a
           [List.iteri] closure here would be built on every program
           run. *)
        let rec run_calls ~measuring site = function
          | [] -> ()
          | (c : Program.call) :: rest ->
              let t0 = Engine.now engine in
              let ok = Retry.call counters env ~rank c in
              progress.(rank) <- Engine.now engine;
              (* Latency includes retries and backoff — the cost
                 the caller actually paid to get the call through. *)
              if ok && measuring then begin
                let latency = Engine.now engine -. t0 in
                Streamstat.add sites.(site).stats latency;
                Streamstat.add overall latency
              end;
              run_calls ~measuring (site + 1) rest
        in
        try
          for iter = 0 to total_iters - 1 do
            let measuring = iter >= params.warmup_iterations in
            Array.iteri
              (fun pi (p : Program.t) ->
                if not alive.(rank) then raise Rank_stopped;
                if crashed () then begin
                  (* varbench is BSP-style: a crashed rank never rejoins
                     the barrier protocol (tailbench honours restarts). *)
                  drop rank "rank-crash";
                  raise Rank_stopped
                end;
                (* Every rank starts every program at the same time. *)
                progress.(rank) <- Engine.now engine;
                waiting.(rank) <- true;
                Barrier.arrive_with_cost barrier ~per_party_cost:barrier_cost;
                waiting.(rank) <- false;
                progress.(rank) <- Engine.now engine;
                if not alive.(rank) then raise Rank_stopped;
                if measuring && Float.is_nan !measure_start then
                  measure_start := Engine.now engine;
                run_calls ~measuring offsets.(pi) p.Program.calls)
              programs
          done;
          completed.(rank) <- true;
          incr finished
        with Rank_stopped -> ())
  done;
  let stop () = !finished + !dropped_count >= ranks in
  (match straggler_timeout_ns with
  | None -> ()
  | Some timeout ->
      if timeout <= 0.0 then
        invalid_arg "Harness.run: straggler timeout must be positive";
      Engine.spawn engine (fun () ->
          let rec tick () =
            if not (stop ()) then begin
              Engine.delay (timeout /. 2.0);
              let now = Engine.now engine in
              for rank = 0 to ranks - 1 do
                if
                  alive.(rank)
                  && (not completed.(rank))
                  && (not waiting.(rank))
                  && now -. progress.(rank) > timeout
                then drop rank "rank-straggler"
              done;
              tick ()
            end
          in
          tick ()));
  Engine.run ~stop engine;
  {
    sites;
    overall;
    ranks;
    iterations = params.iterations;
    wall_time_ns = Engine.now engine -. !measure_start;
    degraded = !dropped <> [];
    survivors = ranks - !dropped_count;
    dropped_ranks = List.rev !dropped;
    transient_retries = counters.retries;
    abandoned_calls = counters.abandoned;
    denied_calls = counters.denied;
  }
