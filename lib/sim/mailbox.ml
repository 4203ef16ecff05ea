type 'a t = {
  engine : Engine.t;
  name : string;
  queue : 'a Queue.t;
  consumers : ('a -> unit) Queue.t;
  mutable sent : int;
}

let create ~engine ~name =
  { engine; name; queue = Queue.create (); consumers = Queue.create (); sent = 0 }

let send t msg =
  t.sent <- t.sent + 1;
  match Queue.take_opt t.consumers with
  | Some deliver -> deliver msg
  | None -> Queue.push msg t.queue

let recv t =
  match Queue.take_opt t.queue with
  | Some msg -> msg
  | None ->
      let slot = ref None in
      Engine.suspend (fun wake ->
          Queue.push
            (fun msg ->
              slot := Some msg;
              wake ())
            t.consumers);
      (match !slot with
      | Some msg -> msg
      | None -> failwith (t.name ^ ": woken without a message"))

let length t = Queue.length t.queue
let sent t = t.sent
