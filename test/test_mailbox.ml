open Ksurf

let test_fifo_order () =
  let engine = Engine.create () in
  let mb = Mailbox.create ~engine ~name:"m" in
  let received = ref [] in
  Engine.spawn engine (fun () ->
      for _ = 1 to 3 do
        received := Mailbox.recv mb :: !received
      done);
  Engine.spawn engine (fun () ->
      Mailbox.send mb 1;
      Mailbox.send mb 2;
      Mailbox.send mb 3);
  Engine.run engine;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !received)

let test_recv_blocks () =
  let engine = Engine.create () in
  let mb = Mailbox.create ~engine ~name:"m" in
  let received_at = ref nan in
  Engine.spawn engine (fun () ->
      ignore (Mailbox.recv mb);
      received_at := Engine.now engine);
  Engine.spawn engine (fun () ->
      Engine.delay 42.0;
      Mailbox.send mb ());
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "waited for sender" 42.0 !received_at

let test_multiple_consumers_fifo () =
  let engine = Engine.create () in
  let mb = Mailbox.create ~engine ~name:"m" in
  let got = Array.make 3 (-1) in
  for i = 0 to 2 do
    Engine.spawn ~at:(float_of_int i) engine (fun () -> got.(i) <- Mailbox.recv mb)
  done;
  Engine.spawn ~at:10.0 engine (fun () ->
      Mailbox.send mb 100;
      Mailbox.send mb 200;
      Mailbox.send mb 300);
  Engine.run engine;
  (* Consumers are served in the order they started waiting. *)
  Alcotest.(check (array int)) "consumer order" [| 100; 200; 300 |] got

let test_queue_length () =
  let engine = Engine.create () in
  let mb = Mailbox.create ~engine ~name:"m" in
  Engine.spawn engine (fun () ->
      Mailbox.send mb "a";
      Mailbox.send mb "b";
      Alcotest.(check int) "queued" 2 (Mailbox.length mb);
      ignore (Mailbox.recv mb);
      Alcotest.(check int) "one left" 1 (Mailbox.length mb));
  Engine.run engine

let test_sent_counter () =
  let engine = Engine.create () in
  let mb = Mailbox.create ~engine ~name:"m" in
  Engine.spawn engine (fun () ->
      for i = 1 to 5 do
        Mailbox.send mb i
      done);
  Engine.run engine;
  Alcotest.(check int) "sent" 5 (Mailbox.sent mb)

let test_waiting_consumers () =
  let engine = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create ~engine ~name:"m" in
  Engine.spawn engine (fun () -> ignore (Mailbox.recv mb));
  Engine.run engine;
  Alcotest.(check int) "one waiting" 1 (List.length (Engine.blocked engine))

let suite =
  [
    Alcotest.test_case "fifo order" `Quick test_fifo_order;
    Alcotest.test_case "recv blocks" `Quick test_recv_blocks;
    Alcotest.test_case "multiple consumers" `Quick test_multiple_consumers_fifo;
    Alcotest.test_case "queue length" `Quick test_queue_length;
    Alcotest.test_case "sent counter" `Quick test_sent_counter;
    Alcotest.test_case "waiting consumers" `Quick test_waiting_consumers;
  ]
