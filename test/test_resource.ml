open Ksurf

let test_capacity_parallelism () =
  let engine = Engine.create () in
  let r = Resource.create ~engine ~name:"r" ~capacity:2 in
  let last = ref nan in
  for _ = 1 to 4 do
    Engine.spawn engine (fun () ->
        Resource.acquire r;
        Engine.delay 10.0;
        Resource.release r;
        last := Engine.now engine)
  done;
  Engine.run engine;
  (* 4 jobs, 2 at a time, 10 each: finishes at 20. *)
  Alcotest.(check (float 1e-9)) "two waves" 20.0 !last

let test_capacity_one_is_lock () =
  let engine = Engine.create () in
  let r = Resource.create ~engine ~name:"r" ~capacity:1 in
  let last = ref nan in
  for _ = 1 to 3 do
    Engine.spawn engine (fun () ->
        Resource.acquire r;
        Engine.delay 5.0;
        Resource.release r;
        last := Engine.now engine)
  done;
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "fully serialised" 15.0 !last

let test_invalid_capacity () =
  let engine = Engine.create () in
  Alcotest.(check bool) "capacity 0 rejected" true
    (try
       ignore (Resource.create ~engine ~name:"r" ~capacity:0);
       false
     with Invalid_argument _ -> true)

let test_in_use_tracking () =
  let engine = Engine.create () in
  let r = Resource.create ~engine ~name:"r" ~capacity:3 in
  Engine.spawn engine (fun () ->
      Resource.acquire r;
      Alcotest.(check int) "one in use" 1 (Resource.in_use r);
      Resource.acquire r;
      Alcotest.(check int) "two in use" 2 (Resource.in_use r);
      Resource.release r;
      Resource.release r;
      Alcotest.(check int) "idle" 0 (Resource.in_use r));
  Engine.run engine

let test_release_idle_fails () =
  let engine = Engine.create () in
  let r = Resource.create ~engine ~name:"r" ~capacity:1 in
  Engine.spawn engine (fun () -> Resource.release r);
  Alcotest.(check bool) "raises, naming the station" true
    (try
       Engine.run engine;
       false
     with Engine.Process_error (_, Invalid_argument msg) ->
       Test_util.contains ~sub:"r" msg)

let test_served_counter () =
  let engine = Engine.create () in
  let r = Resource.create ~engine ~name:"r" ~capacity:2 in
  for _ = 1 to 5 do
    Engine.spawn engine (fun () ->
        Resource.acquire r;
        Engine.delay 1.0;
        Resource.release r)
  done;
  Engine.run engine;
  Alcotest.(check int) "served" 5 (Resource.served r)

let qcheck_makespan =
  QCheck.Test.make ~name:"makespan = ceil(jobs/capacity) * service" ~count:100
    QCheck.(pair (int_range 1 8) (int_range 1 30))
    (fun (capacity, jobs) ->
      let engine = Engine.create () in
      let r = Resource.create ~engine ~name:"m" ~capacity in
      let last = ref 0.0 in
      for _ = 1 to jobs do
        Engine.spawn engine (fun () ->
            Resource.acquire r;
            Engine.delay 7.0;
            Resource.release r;
            last := Engine.now engine)
      done;
      Engine.run engine;
      let waves = (jobs + capacity - 1) / capacity in
      Float.abs (!last -. (float_of_int waves *. 7.0)) < 1e-6)

let suite =
  [
    Alcotest.test_case "capacity parallelism" `Quick test_capacity_parallelism;
    Alcotest.test_case "capacity one" `Quick test_capacity_one_is_lock;
    Alcotest.test_case "invalid capacity" `Quick test_invalid_capacity;
    Alcotest.test_case "in_use tracking" `Quick test_in_use_tracking;
    Alcotest.test_case "release idle" `Quick test_release_idle_fails;
    Alcotest.test_case "served counter" `Quick test_served_counter;
    QCheck_alcotest.to_alcotest qcheck_makespan;
  ]
