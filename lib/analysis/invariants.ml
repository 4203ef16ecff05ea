(* Engine invariant sanitizer: a net over the probe event stream that
   re-checks what the engine and the synchronization primitives promise
   structurally — events never scheduled in the past or at a non-finite
   time, execution time never regressing, suspensions woken at most
   once, barrier generations monotone and gap-free, and per-lock
   contention counters consistent ([acquisitions >= contended] at
   drain).  The engine hard-raises on some of these itself; the
   sanitizer exists so a future engine change that silently drops a
   guard is still caught. *)

module Engine = Ksurf_sim.Engine

type lock_counts = { mutable acquires : int; mutable contended : int }

type t = {
  mutable findings : Finding.t list;  (** reversed *)
  mutable tokens : Bytes.t;
      (** suspension token -> its state, one byte per token; the engine
          issues tokens densely from 1 *)
  far_tokens : (int, int) Hashtbl.t;
      (** states of tokens outside [0, max_dense_token) *)
  barriers : (string, int) Hashtbl.t;  (** barrier -> last generation *)
  locks : (string, lock_counts) Hashtbl.t;
  mutable last_exec_time : float;
  mutable events : int;
}

(* Token states.  A token absent from both tables is unseen. *)
let unseen = 0
let suspended = 1
let woken = 2

let max_dense_token = 1 lsl 22

let create () =
  {
    findings = [];
    tokens = Bytes.make 1024 '\000';
    far_tokens = Hashtbl.create 8;
    barriers = Hashtbl.create 8;
    locks = Hashtbl.create 64;
    last_exec_time = neg_infinity;
    events = 0;
  }

let events t = t.events

let add t ~severity ~code message =
  t.findings <-
    Finding.make ~severity ~check:"invariants" ~code ~message () :: t.findings

let token_state t token =
  if token >= 0 && token < Bytes.length t.tokens then Char.code (Bytes.get t.tokens token)
  else if token >= 0 && token < max_dense_token then unseen
  else match Hashtbl.find t.far_tokens token with s -> s | exception Not_found -> unseen

let set_token_state t token state =
  if token >= 0 && token < max_dense_token then begin
    let len = Bytes.length t.tokens in
    if token >= len then begin
      let grown = Bytes.make (min max_dense_token (max (2 * len) (token + 1))) '\000' in
      Bytes.blit t.tokens 0 grown 0 len;
      t.tokens <- grown
    end;
    Bytes.set t.tokens token (Char.chr state)
  end
  else Hashtbl.replace t.far_tokens token state

let counts_for t name =
  match Hashtbl.find t.locks name with
  | c -> c
  | exception Not_found ->
      let c = { acquires = 0; contended = 0 } in
      Hashtbl.add t.locks name c;
      c

(* A barrier's last generation, 0 before its first event. *)
let last_generation t name =
  match Hashtbl.find t.barriers name with g -> g | exception Not_found -> 0

let on_event t (info : Engine.event_info) =
  t.events <- t.events + 1;
  match info with
  | Engine.Scheduled { now; at; pid } ->
      (* Non-finite first, as the engine refuses them: NaN is never
         [< now], and neither is +infinity. *)
      if not (Float.is_finite at) then
        add t ~severity:Finding.Error ~code:"scheduled-non-finite"
          (Printf.sprintf "pid %d scheduled an event at non-finite t=%g (now=%g)"
             pid at now)
      else if at < now then
        add t ~severity:Finding.Error ~code:"scheduled-in-past"
          (Printf.sprintf "pid %d scheduled an event at t=%g before now=%g" pid
             at now)
  | Engine.Executed { now; _ } ->
      if now < t.last_exec_time then
        add t ~severity:Finding.Error ~code:"time-regression"
          (Printf.sprintf "event executed at t=%g after t=%g" now
             t.last_exec_time)
      else t.last_exec_time <- now
  | Engine.Suspended { token; pid; now } ->
      if token_state t token <> unseen then
        add t ~severity:Finding.Error ~code:"suspension-token-reused"
          (Printf.sprintf "suspension token %d reused by pid %d at t=%g" token
             pid now)
      else set_token_state t token suspended
  | Engine.Woken { token; pid; now } ->
      let state = token_state t token in
      if state = unseen then
        add t ~severity:Finding.Error ~code:"wake-without-suspend"
          (Printf.sprintf "token %d woken (pid %d, t=%g) but never suspended"
             token pid now)
      else if state = woken then
        add t ~severity:Finding.Error ~code:"double-wake"
          (Printf.sprintf "token %d (pid %d) woken twice, second at t=%g"
             token pid now)
      else set_token_state t token woken
  | Engine.Sync { name; op; now; _ } -> (
      match op with
      | Engine.Acquire { contended }
      | Engine.Read_acquire { contended }
      | Engine.Write_acquire { contended } ->
          let c = counts_for t name in
          c.acquires <- c.acquires + 1;
          if contended then c.contended <- c.contended + 1
      | Engine.Release | Engine.Read_release | Engine.Write_release -> ()
      | Engine.Barrier_arrive { generation; arrived; parties } ->
          if arrived < 1 || arrived > parties then
            add t ~severity:Finding.Error ~code:"barrier-arrival-out-of-range"
              (Printf.sprintf
                 "barrier %s: arrival count %d outside 1..%d at t=%g" name
                 arrived parties now);
          let last = last_generation t name in
          if generation < last then
            add t ~severity:Finding.Error ~code:"barrier-generation-regressed"
              (Printf.sprintf
                 "barrier %s: arrival saw generation %d after %d at t=%g" name
                 generation last now)
          else Hashtbl.replace t.barriers name generation
      | Engine.Barrier_release { generation } ->
          let last = last_generation t name in
          if generation <> last + 1 then
            add t ~severity:Finding.Error ~code:"barrier-generation-skip"
              (Printf.sprintf
                 "barrier %s: released generation %d, expected %d at t=%g" name
                 generation (last + 1) now)
          else Hashtbl.replace t.barriers name generation)
  | Engine.Injected _ | Engine.Denied _ -> ()

(* [drained] as in {!Lockdep.finish}: stuck-process checks only make
   sense when the engine genuinely ran out of events. *)
let finish ?(drained = true) t =
  let counter_findings =
    Hashtbl.fold
      (fun name c acc ->
        if c.contended > c.acquires then
          Finding.make ~severity:Finding.Error ~check:"invariants"
            ~code:"contended-exceeds-acquisitions"
            ~message:
              (Printf.sprintf "%s: %d contended acquisitions out of %d total"
                 name c.contended c.acquires)
            ()
          :: acc
        else acc)
      t.locks []
  in
  let stuck =
    if not drained then []
    else begin
      let acc = ref [] in
      let note token state =
        if state = suspended then
          acc :=
            Finding.make ~severity:Finding.Warning ~check:"invariants"
              ~code:"suspended-at-drain"
              ~message:
                (Printf.sprintf
                   "suspension %d was never woken: a process is stuck" token)
              ()
            :: !acc
      in
      Bytes.iteri (fun token c -> note token (Char.code c)) t.tokens;
      Hashtbl.iter note t.far_tokens;
      !acc
    end
  in
  let stable =
    List.sort (fun (a : Finding.t) b -> String.compare a.message b.message)
  in
  List.rev t.findings @ stable counter_findings @ stable stuck
