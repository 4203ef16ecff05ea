open Ksurf

(* Randomised-schedule invariants of the simulation core: whatever the
   interleaving, exclusion/capacity/ordering invariants must hold and
   the engine must drain (no lost wakeups, no deadlock). *)

let qcheck_mutex_invariant_random_schedules =
  QCheck.Test.make ~name:"mutual exclusion under random schedules" ~count:60
    QCheck.(triple small_int (int_range 2 8) (int_range 1 12))
    (fun (seed, procs, cycles) ->
      let engine = Engine.create ~seed () in
      let lock = Lock.create ~engine ~name:"m" in
      let rng = Prng.create (seed + 1) in
      let holders = ref 0 in
      let ok = ref true in
      let completed = ref 0 in
      for _ = 1 to procs do
        let start = Prng.float rng 50.0 in
        Engine.spawn ~at:start engine (fun () ->
            for _ = 1 to cycles do
              Engine.delay (Prng.float rng 20.0);
              Lock.acquire lock;
              incr holders;
              if !holders <> 1 then ok := false;
              Engine.delay (Prng.float rng 15.0);
              decr holders;
              Lock.release lock
            done;
            incr completed)
      done;
      Engine.run engine;
      !ok && !completed = procs && not (Lock.held lock))

let qcheck_resource_capacity_invariant =
  QCheck.Test.make ~name:"resource capacity never exceeded" ~count:60
    QCheck.(triple small_int (int_range 1 5) (int_range 2 12))
    (fun (seed, capacity, procs) ->
      let engine = Engine.create ~seed () in
      let r = Resource.create ~engine ~name:"r" ~capacity in
      let rng = Prng.create (seed + 2) in
      let ok = ref true in
      for _ = 1 to procs do
        Engine.spawn ~at:(Prng.float rng 30.0) engine (fun () ->
            for _ = 1 to 5 do
              Resource.acquire r;
              if Resource.in_use r > capacity then ok := false;
              Engine.delay (Prng.float rng 10.0);
              Resource.release r
            done)
      done;
      Engine.run engine;
      !ok && Resource.in_use r = 0)

let qcheck_rwlock_invariant =
  QCheck.Test.make ~name:"rwlock: writers exclude everyone" ~count:60
    QCheck.(pair small_int (int_range 2 8))
    (fun (seed, procs) ->
      let engine = Engine.create ~seed () in
      let rw = Rwlock.create ~engine ~name:"rw" in
      let rng = Prng.create (seed + 3) in
      let readers = ref 0 and writers = ref 0 in
      let ok = ref true in
      for i = 1 to procs do
        Engine.spawn ~at:(Prng.float rng 20.0) engine (fun () ->
            for _ = 1 to 6 do
              Engine.delay (Prng.float rng 10.0);
              if i mod 2 = 0 then begin
                Rwlock.acquire_read rw;
                incr readers;
                if !writers > 0 then ok := false;
                Engine.delay (Prng.float rng 5.0);
                decr readers;
                Rwlock.release_read rw
              end
              else begin
                Rwlock.acquire_write rw;
                incr writers;
                if !writers <> 1 || !readers > 0 then ok := false;
                Engine.delay (Prng.float rng 5.0);
                decr writers;
                Rwlock.release_write rw
              end
            done)
      done;
      Engine.run engine;
      !ok)

let qcheck_barrier_rounds_complete =
  QCheck.Test.make ~name:"barrier: all parties complete all rounds" ~count:60
    QCheck.(triple small_int (int_range 2 10) (int_range 1 8))
    (fun (seed, parties, rounds) ->
      let engine = Engine.create ~seed () in
      let barrier = Barrier.create ~engine ~name:"b" ~parties in
      let rng = Prng.create (seed + 4) in
      let finished = ref 0 in
      for _ = 1 to parties do
        Engine.spawn engine (fun () ->
            for _ = 1 to rounds do
              Engine.delay (Prng.float rng 25.0);
              Barrier.arrive barrier
            done;
            incr finished)
      done;
      Engine.run engine;
      !finished = parties && Barrier.generation barrier = rounds)

let qcheck_time_monotone =
  QCheck.Test.make ~name:"virtual time never decreases" ~count:60
    QCheck.(pair small_int (int_range 1 10))
    (fun (seed, procs) ->
      let engine = Engine.create ~seed () in
      let rng = Prng.create (seed + 5) in
      let last = ref 0.0 in
      let ok = ref true in
      for _ = 1 to procs do
        Engine.spawn ~at:(Prng.float rng 40.0) engine (fun () ->
            for _ = 1 to 10 do
              Engine.delay (Prng.float rng 10.0);
              let now = Engine.now engine in
              if now < !last then ok := false;
              last := now
            done)
      done;
      Engine.run engine;
      !ok)

let qcheck_mailbox_conserves_messages =
  QCheck.Test.make ~name:"mailbox conserves messages" ~count:60
    QCheck.(triple small_int (int_range 1 6) (int_range 1 30))
    (fun (seed, consumers, messages) ->
      let engine = Engine.create ~seed () in
      let mb = Mailbox.create ~engine ~name:"mb" in
      let rng = Prng.create (seed + 6) in
      let received = ref 0 in
      for _ = 1 to consumers do
        Engine.spawn engine (fun () ->
            let rec loop () =
              ignore (Mailbox.recv mb);
              incr received;
              loop ()
            in
            loop ())
      done;
      Engine.spawn engine (fun () ->
          for _ = 1 to messages do
            Engine.delay (Prng.float rng 5.0);
            Mailbox.send mb ()
          done);
      Engine.run ~stop:(fun () -> !received = messages) engine;
      !received = messages && Mailbox.length mb = 0)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_mutex_invariant_random_schedules;
    QCheck_alcotest.to_alcotest qcheck_resource_capacity_invariant;
    QCheck_alcotest.to_alcotest qcheck_rwlock_invariant;
    QCheck_alcotest.to_alcotest qcheck_barrier_rounds_complete;
    QCheck_alcotest.to_alcotest qcheck_time_monotone;
    QCheck_alcotest.to_alcotest qcheck_mailbox_conserves_messages;
  ]
