(* Orchestrates the analyzers: [double_run], the combinator every gate
   sanitizes through, and [crash_finding] for a run that raised. *)

module Engine = Ksurf_sim.Engine

type check = Lockdep | Invariants | Determinism

let check_name = function
  | Lockdep -> "lockdep"
  | Invariants -> "invariants"
  | Determinism -> "determinism"

let check_of_string = function
  | "lockdep" -> Some Lockdep
  | "invariants" -> Some Invariants
  | "determinism" -> Some Determinism
  | _ -> None

(* "lockdep,determinism" -> Ok [Lockdep; Determinism]; first unknown
   name is returned as the error. *)
let checks_of_string s =
  let names =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun n -> n <> "")
  in
  List.fold_left
    (fun acc name ->
      match acc with
      | Error _ -> acc
      | Ok checks -> (
          match check_of_string name with
          | Some c -> Ok (checks @ [ c ])
          | None -> Error name))
    (Ok []) names

let crash_finding exn =
  match exn with
  | Engine.Process_error (ctx, inner) ->
      Finding.make ~severity:Finding.Error ~check:"crash" ~code:"process-error"
        ~message:
          (Printf.sprintf "simulation process crashed %s: %s" ctx
             (Printexc.to_string inner))
        ()
  | exn ->
      Finding.make ~severity:Finding.Error ~check:"crash" ~code:"exception"
        ~message:(Printf.sprintf "scenario raised: %s" (Printexc.to_string exn))
        ()

(* Lockdep and invariants attached to one engine; [finish_static]
   turns every attachment into findings, in engine-creation order. *)
type static = {
  engine : Engine.t;
  lockdep : Lockdep.t;
  invariants : Invariants.t;
}

let attach_static engine =
  let lockdep = Lockdep.create () in
  let invariants = Invariants.create () in
  Engine.add_probe engine (Lockdep.on_event lockdep);
  Engine.add_probe engine (Invariants.on_event invariants);
  { engine; lockdep; invariants }

let finish_static attached =
  List.concat_map
    (fun { engine; lockdep; invariants } ->
      (* Leak/stuck checks only apply when the engine genuinely ran out
         of events; runs stopped by a predicate (with background daemons
         still pending) legitimately leave state in flight. *)
      let drained = Engine.pending engine = 0 in
      Lockdep.finish ~drained lockdep @ Invariants.finish ~drained invariants)
    (List.rev attached)

let double_run ~run () =
  let first = ref true in
  let attached = ref [] in
  let last = ref None in
  let replay =
    Determinism.check
      ~run:(fun ~probe ->
        let on_engine engine =
          Engine.add_probe engine probe;
          if !first then attached := attach_static engine :: !attached
        in
        last := Some (run ~on_engine);
        first := false)
      ()
  in
  let value = match !last with Some v -> v | None -> assert false in
  (value, replay, finish_static !attached @ Determinism.to_findings replay)
