(* Determinism checker: run the same scenario twice with the same seed,
   fold both probe event streams through {!Ksurf_util.Stable_hash}, and
   report the first divergent event.  The DES is supposed to be
   bit-for-bit deterministic — every number the repo publishes rests on
   it — so any divergence is an Error. *)

module Engine = Ksurf_sim.Engine
module Stable_hash = Ksurf_util.Stable_hash

type event = { key : string; display : string }

let op_label (op : Engine.sync_op) =
  match op with
  | Engine.Acquire { contended } -> Printf.sprintf "acquire(contended=%b)" contended
  | Engine.Release -> "release"
  | Engine.Read_acquire { contended } ->
      Printf.sprintf "read-acquire(contended=%b)" contended
  | Engine.Read_release -> "read-release"
  | Engine.Write_acquire { contended } ->
      Printf.sprintf "write-acquire(contended=%b)" contended
  | Engine.Write_release -> "write-release"
  | Engine.Barrier_arrive { generation; arrived; parties } ->
      Printf.sprintf "barrier-arrive(gen=%d,%d/%d)" generation arrived parties
  | Engine.Barrier_release { generation } ->
      Printf.sprintf "barrier-release(gen=%d)" generation
  | Engine.Barrier_depart { generation; parties } ->
      Printf.sprintf "barrier-depart(gen=%d,parties=%d)" generation parties

(* The exact float bits, so "close enough" never passes. *)
let key (info : Engine.event_info) =
  let bits = Int64.bits_of_float in
  match info with
  | Engine.Scheduled { now; at; pid } ->
      Printf.sprintf "S:%Lx:%Lx:%d" (bits now) (bits at) pid
  | Engine.Executed { now; pid } -> Printf.sprintf "E:%Lx:%d" (bits now) pid
  | Engine.Suspended { now; pid; token } ->
      Printf.sprintf "P:%Lx:%d:%d" (bits now) pid token
  | Engine.Woken { now; pid; token } ->
      Printf.sprintf "W:%Lx:%d:%d" (bits now) pid token
  | Engine.Sync { now; pid; name; op } ->
      Printf.sprintf "Y:%Lx:%d:%s:%s" (bits now) pid name (op_label op)
  | Engine.Injected { now; pid; fault; magnitude } ->
      Printf.sprintf "I:%Lx:%d:%s:%Lx" (bits now) pid fault (bits magnitude)
  | Engine.Denied { now; pid; syscall; enforced } ->
      Printf.sprintf "D:%Lx:%d:%s:%b" (bits now) pid syscall enforced
  | Engine.Rank_transition { now; pid; rank; from_state; to_state; incident } ->
      Printf.sprintf "R:%Lx:%d:%d:%s:%s:%d" (bits now) pid rank from_state
        to_state incident

let display (info : Engine.event_info) =
  match info with
  | Engine.Scheduled { now; at; pid } ->
      Printf.sprintf "t=%g pid=%d schedule(at=%g)" now pid at
  | Engine.Executed { now; pid } -> Printf.sprintf "t=%g pid=%d execute" now pid
  | Engine.Suspended { now; pid; token } ->
      Printf.sprintf "t=%g pid=%d suspend(token=%d)" now pid token
  | Engine.Woken { now; pid; token } ->
      Printf.sprintf "t=%g pid=%d wake(token=%d)" now pid token
  | Engine.Sync { now; pid; name; op } ->
      Printf.sprintf "t=%g pid=%d %s %s" now pid name (op_label op)
  | Engine.Injected { now; pid; fault; magnitude } ->
      Printf.sprintf "t=%g pid=%d inject %s(%g)" now pid fault magnitude
  | Engine.Denied { now; pid; syscall; enforced } ->
      Printf.sprintf "t=%g pid=%d deny %s(enforced=%b)" now pid syscall enforced
  | Engine.Rank_transition { now; pid; rank; from_state; to_state; incident } ->
      Printf.sprintf "t=%g pid=%d rank %d %s->%s (incident %d)" now pid rank
        from_state to_state incident

let describe info = { key = key info; display = display info }

type divergence = {
  index : int;  (** position in the event stream, 0-based *)
  first : string option;  (** event of the first run, if it had one *)
  second : string option;  (** event of the second run, if it had one *)
}

type result = {
  events_first : int;
  events_second : int;
  hash_first : int;
  hash_second : int;
  divergence : divergence option;
}

let deterministic r = r.divergence = None && r.hash_first = r.hash_second

(* [run ~probe] must perform one complete scenario run, feeding every
   engine event to [probe] (attach it via [Engine.add_probe] on every
   engine the scenario creates).  The first run queues copies of the
   events, since an engine overwrites the one it hands a probe; the
   second compares keys against them, and only a divergent pair is
   rendered for display. *)
let check ~(run : probe:(Engine.event_info -> unit) -> unit) () =
  let seed_hash = Stable_hash.string "ksan-determinism" in
  let first_events = Queue.create () in
  let hash_first = ref seed_hash in
  run ~probe:(fun info ->
      hash_first := Stable_hash.combine !hash_first (Stable_hash.string (key info));
      Queue.push (Engine.copy_event info) first_events);
  let events_first = Queue.length first_events in
  let hash_second = ref seed_hash in
  let events_second = ref 0 in
  let divergence = ref None in
  run ~probe:(fun info ->
      let k = key info in
      let index = !events_second in
      incr events_second;
      hash_second := Stable_hash.combine !hash_second (Stable_hash.string k);
      match Queue.take_opt first_events with
      | Some a when String.equal (key a) k -> ()
      | Some a ->
          if !divergence = None then
            divergence :=
              Some { index; first = Some (display a); second = Some (display info) }
      | None ->
          if !divergence = None then
            divergence := Some { index; first = None; second = Some (display info) });
  (if !divergence = None then
     match Queue.take_opt first_events with
     | Some a ->
         divergence :=
           Some { index = !events_second; first = Some (display a); second = None }
     | None -> ());
  {
    events_first;
    events_second = !events_second;
    hash_first = !hash_first;
    hash_second = !hash_second;
    divergence = !divergence;
  }

let pp_replay ppf r =
  Format.fprintf ppf "replay: %d vs %d events, hash %08x vs %08x — %s"
    r.events_first r.events_second r.hash_first r.hash_second
    (if deterministic r then "identical" else "DIVERGENT")

let to_findings r =
  if deterministic r then []
  else
    let witness =
      match r.divergence with
      | None -> []
      | Some d ->
          [
            Printf.sprintf "first divergent event at index %d" d.index;
            Printf.sprintf "  run 1: %s"
              (Option.value ~default:"<stream ended>" d.first);
            Printf.sprintf "  run 2: %s"
              (Option.value ~default:"<stream ended>" d.second);
          ]
    in
    [
      Finding.make ~severity:Finding.Error ~check:"determinism"
        ~code:"divergent-replay"
        ~message:
          (Printf.sprintf
             "two runs with the same seed diverged (%d vs %d events, hash \
              %x vs %x)"
             r.events_first r.events_second r.hash_first r.hash_second)
        ~witness ()
    ]
