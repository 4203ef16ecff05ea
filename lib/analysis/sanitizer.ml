(* Orchestrates the analyzers: [run] over a stock scenario (one
   instrumented run for the static checks plus a determinism double
   run), and [double_run], the combinator every CLI gate sanitizes
   through. *)

module Engine = Ksurf_sim.Engine

type check = Lockdep | Invariants | Determinism

let all_checks = [ Lockdep; Invariants; Determinism ]

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

type outcome = {
  scenario : Scenarios.t;
  seed : int;
  checks : check list;
  findings : Finding.t list;
  events : int;  (** probe events observed across all runs *)
  runs : int;  (** scenario executions performed *)
}

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

(* Lockdep and/or invariants attached to one engine; [finish_static]
   turns every attachment into findings, in engine-creation order. *)
type static = {
  engine : Engine.t;
  lockdep : Lockdep.t option;
  invariants : Invariants.t option;
}

let attach_static ~lockdep ~invariants engine =
  let lockdep = if lockdep then Some (Lockdep.create ()) else None in
  let invariants = if invariants then Some (Invariants.create ()) else None in
  Option.iter (fun s -> Engine.add_probe engine (Lockdep.on_event s)) lockdep;
  Option.iter
    (fun s -> Engine.add_probe engine (Invariants.on_event s))
    invariants;
  { engine; lockdep; invariants }

let finish_static attached =
  List.concat_map
    (fun { engine; lockdep; invariants } ->
      (* Leak/stuck checks only apply when the engine genuinely ran out
         of events; runs stopped by a predicate (with background daemons
         still pending) legitimately leave state in flight. *)
      let drained = Engine.pending engine = 0 in
      Option.fold ~none:[] ~some:(Lockdep.finish ~drained) lockdep
      @ Option.fold ~none:[] ~some:(Invariants.finish ~drained) invariants)
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
          if !first then
            attached :=
              attach_static ~lockdep:true ~invariants:true engine :: !attached
        in
        last := Some (run ~on_engine);
        first := false)
      ()
  in
  let value = match !last with Some v -> v | None -> assert false in
  (value, replay, finish_static !attached @ Determinism.to_findings replay)

let run ~scenario ~seed ~checks () =
  let findings = ref [] in
  let events = ref 0 in
  let runs = ref 0 in
  let add fs = findings := !findings @ fs in
  let lockdep = List.mem Lockdep checks in
  let invariants = List.mem Invariants checks in
  if lockdep || invariants then begin
    incr runs;
    let attached = ref [] in
    let on_engine engine =
      attached := attach_static ~lockdep ~invariants engine :: !attached;
      Engine.add_probe engine (fun _ -> incr events)
    in
    (try Scenarios.run scenario ~seed ~on_engine
     with exn -> add [ crash_finding exn ]);
    add (finish_static !attached)
  end;
  if List.mem Determinism checks then begin
    let result =
      Determinism.check
        ~run:(fun ~probe ->
          incr runs;
          Scenarios.run scenario ~seed ~on_engine:(fun engine ->
              Engine.add_probe engine (fun info ->
                  incr events;
                  probe info)))
        ()
    in
    add (Determinism.to_findings result)
  end;
  {
    scenario;
    seed;
    checks;
    findings = Finding.sort !findings;
    events = !events;
    runs = !runs;
  }

let pp_outcome ppf o =
  Format.fprintf ppf "analyze %s seed=%d checks=%s: %d finding(s), %d events, %d run(s)"
    (Scenarios.to_string o.scenario)
    o.seed
    (String.concat "," (List.map check_name o.checks))
    (List.length o.findings) o.events o.runs;
  List.iter (fun f -> Format.fprintf ppf "@.  %a" Finding.pp f) o.findings;
  if o.findings = [] then Format.fprintf ppf "@.  no findings: all checks clean"
