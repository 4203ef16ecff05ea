open Ksurf

let test_readers_share () =
  let engine = Engine.create () in
  let rw = Rwlock.create ~engine ~name:"rw" in
  let last = ref nan in
  for _ = 1 to 4 do
    Engine.spawn engine (fun () ->
        Rwlock.acquire_read rw;
        Engine.delay 10.0;
        Rwlock.release_read rw;
        last := Engine.now engine)
  done;
  Engine.run engine;
  (* All four readers overlap: total time is one hold. *)
  Alcotest.(check (float 1e-9)) "concurrent readers" 10.0 !last

let test_writers_exclusive () =
  let engine = Engine.create () in
  let rw = Rwlock.create ~engine ~name:"rw" in
  let last = ref nan in
  for _ = 1 to 3 do
    Engine.spawn engine (fun () ->
        Rwlock.acquire_write rw;
        Engine.delay 10.0;
        Rwlock.release_write rw;
        last := Engine.now engine)
  done;
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "serialised writers" 30.0 !last

let test_writer_excludes_readers () =
  let engine = Engine.create () in
  let rw = Rwlock.create ~engine ~name:"rw" in
  let reader_done = ref nan in
  Engine.spawn engine (fun () ->
      Rwlock.acquire_write rw;
      Engine.delay 100.0;
      Rwlock.release_write rw);
  Engine.spawn ~at:1.0 engine (fun () ->
      Rwlock.acquire_read rw;
      Engine.delay 5.0;
      Rwlock.release_read rw;
      reader_done := Engine.now engine);
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "reader waits for writer" 105.0 !reader_done

let test_writer_preference () =
  let engine = Engine.create () in
  let rw = Rwlock.create ~engine ~name:"rw" in
  let order = ref [] in
  (* Reader holds; writer queues; a later reader must NOT overtake the
     queued writer. *)
  Engine.spawn engine (fun () ->
      Rwlock.acquire_read rw;
      Engine.delay 50.0;
      Rwlock.release_read rw);
  Engine.spawn ~at:10.0 engine (fun () ->
      Rwlock.acquire_write rw;
      order := "writer" :: !order;
      Engine.delay 10.0;
      Rwlock.release_write rw);
  Engine.spawn ~at:20.0 engine (fun () ->
      Rwlock.acquire_read rw;
      order := "reader2" :: !order;
      Engine.delay 1.0;
      Rwlock.release_read rw);
  Engine.run engine;
  Alcotest.(check (list string)) "writer first" [ "writer"; "reader2" ]
    (List.rev !order)

let test_state_queries () =
  let engine = Engine.create () in
  let rw = Rwlock.create ~engine ~name:"rw" in
  Engine.spawn engine (fun () ->
      Rwlock.acquire_read rw;
      Alcotest.(check int) "one reader" 1 (Rwlock.readers rw);
      Rwlock.release_read rw;
      Rwlock.acquire_write rw;
      Alcotest.(check int) "no reader beside the writer" 0 (Rwlock.readers rw);
      Rwlock.release_write rw);
  Engine.run engine

let test_bad_release () =
  let engine = Engine.create () in
  let rw = Rwlock.create ~engine ~name:"rw" in
  Engine.spawn engine (fun () -> Rwlock.release_read rw);
  Alcotest.(check bool) "read release raises, naming the lock" true
    (try
       Engine.run engine;
       false
     with Engine.Process_error (_, Invalid_argument msg) ->
       Test_util.contains ~sub:"rw" msg);
  let engine = Engine.create () in
  let rw = Rwlock.create ~engine ~name:"rw2" in
  Engine.spawn engine (fun () -> Rwlock.release_write rw);
  Alcotest.(check bool) "write release raises, naming the lock" true
    (try
       Engine.run engine;
       false
     with Engine.Process_error (_, Invalid_argument msg) ->
       Test_util.contains ~sub:"rw2" msg)

let test_readers_resume_after_writer () =
  let engine = Engine.create () in
  let rw = Rwlock.create ~engine ~name:"rw" in
  let finished = ref 0 in
  Engine.spawn engine (fun () ->
      Rwlock.acquire_write rw;
      Engine.delay 10.0;
      Rwlock.release_write rw);
  for _ = 1 to 3 do
    Engine.spawn ~at:1.0 engine (fun () ->
        Rwlock.acquire_read rw;
        Engine.delay 5.0;
        Rwlock.release_read rw;
        incr finished;
        (* All three readers were granted together after the writer. *)
        Alcotest.(check (float 1e-9)) "batched grant" 15.0 (Engine.now engine))
  done;
  Engine.run engine;
  Alcotest.(check int) "all readers ran" 3 !finished

let suite =
  [
    Alcotest.test_case "readers share" `Quick test_readers_share;
    Alcotest.test_case "writers exclusive" `Quick test_writers_exclusive;
    Alcotest.test_case "writer excludes readers" `Quick
      test_writer_excludes_readers;
    Alcotest.test_case "writer preference" `Quick test_writer_preference;
    Alcotest.test_case "state queries" `Quick test_state_queries;
    Alcotest.test_case "bad release" `Quick test_bad_release;
    Alcotest.test_case "readers batch after writer" `Quick
      test_readers_resume_after_writer;
  ]
