(* Host-I/O fault plans.

   Same discipline as lib/fault/plan.ml, one layer down: typed actions,
   a line-oriented text format, presets, and a dose knob — but the
   events being perturbed are host I/O operations (open / write /
   fsync / rename / ...) rather than simulated syscalls.  Keeping the
   two languages twins means a torture run is described, replayed and
   scaled exactly like a kfault run. *)

type action =
  | Transient of { rate : float; eintr_share : float }
  | Enospc_window of { from_op : int; until_op : int }
  | Hard_eio of { rate : float }
  | Torn_write of { rate : float; keep : float }
  | Fsync_drop of { rate : float }
  | Crash_at of { op : int }

type t = { name : string; actions : action list }

let empty = { name = "empty"; actions = [] }

(* --- dose scaling ----------------------------------------------------- *)

let clamp01 x = Float.min 1.0 (Float.max 0.0 x)

let scale_action k = function
  | Transient { rate; eintr_share } ->
      Some (Transient { rate = clamp01 (rate *. k); eintr_share })
  | Enospc_window { from_op; until_op } ->
      (* The dose stretches how long the disk stays full, not when it
         fills: onset is workload phase, duration is severity. *)
      let len = float_of_int (until_op - from_op) *. k in
      let until_op = from_op + int_of_float (Float.max 0.0 len) in
      if until_op <= from_op then None else Some (Enospc_window { from_op; until_op })
  | Hard_eio { rate } -> Some (Hard_eio { rate = clamp01 (rate *. k) })
  | Torn_write { rate; keep } ->
      Some (Torn_write { rate = clamp01 (rate *. k); keep })
  | Fsync_drop { rate } -> Some (Fsync_drop { rate = clamp01 (rate *. k) })
  | Crash_at c -> if k <= 0.0 then None else Some (Crash_at c)

let scale k t =
  if k < 0.0 then invalid_arg "Durplan.scale: negative intensity";
  {
    name = Printf.sprintf "%s@%g" t.name k;
    (* Zero dose injects literally nothing. *)
    actions =
      (if k = 0.0 then [] else List.filter_map (scale_action k) t.actions);
  }

(* --- serialisation ---------------------------------------------------- *)

let action_to_string = function
  | Transient { rate; eintr_share } ->
      Printf.sprintf "transient rate=%g eintr-share=%g" rate eintr_share
  | Enospc_window { from_op; until_op } ->
      Printf.sprintf "enospc at=%d clear=%d" from_op until_op
  | Hard_eio { rate } -> Printf.sprintf "eio rate=%g" rate
  | Torn_write { rate; keep } ->
      Printf.sprintf "torn rate=%g keep=%g" rate keep
  | Fsync_drop { rate } -> Printf.sprintf "fsync-drop rate=%g" rate
  | Crash_at { op } -> Printf.sprintf "crash at-op=%d" op

let to_string t =
  String.concat "\n"
    (Printf.sprintf "name %s" t.name :: List.map action_to_string t.actions)
  ^ "\n"

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* Parser for the line format (Kvline): each action's keyword and
   key=value pairs. *)

module Kvline = Ksurf_util.Kvline

let ( let* ) = Result.bind
let find_float = Kvline.find_float
let find_int = Kvline.find_int

let parse_action keyword kvs =
  match keyword with
  | "transient" ->
      let* rate = find_float kvs "rate" ~default:None in
      let* eintr_share = find_float kvs "eintr-share" ~default:(Some 0.5) in
      Ok (Transient { rate; eintr_share })
  | "enospc" ->
      let* from_op = find_int kvs "at" ~default:None in
      let* until_op = find_int kvs "clear" ~default:None in
      if until_op <= from_op then Error "enospc: clear= must exceed at="
      else Ok (Enospc_window { from_op; until_op })
  | "eio" ->
      let* rate = find_float kvs "rate" ~default:None in
      Ok (Hard_eio { rate })
  | "torn" ->
      let* rate = find_float kvs "rate" ~default:None in
      let* keep = find_float kvs "keep" ~default:(Some 0.5) in
      Ok (Torn_write { rate; keep = clamp01 keep })
  | "fsync-drop" ->
      let* rate = find_float kvs "rate" ~default:None in
      Ok (Fsync_drop { rate })
  | "crash" ->
      let* op = find_int kvs "at-op" ~default:None in
      Ok (Crash_at { op })
  | other -> Error (Printf.sprintf "unknown I/O fault action %S" other)

let of_string s =
  Result.map
    (fun (name, actions) -> { name; actions })
    (Kvline.parse ~action:parse_action s)

(* --- presets ----------------------------------------------------------

   Rates are per-op, sized for torture workloads of a few hundred ops
   per run: at dose 1 a run sees a handful of transients, roughly one
   hard fault, and one mid-run ENOSPC episode — enough to exercise
   every recovery path without making progress improbable. *)

let transient_preset =
  {
    name = "io-transient";
    actions = [ Transient { rate = 0.04; eintr_share = 0.5 } ];
  }

let enospc_preset =
  {
    name = "io-enospc";
    actions = [ Enospc_window { from_op = 40; until_op = 80 } ];
  }

let torn_preset =
  {
    name = "io-torn";
    actions =
      [
        Torn_write { rate = 0.02; keep = 0.5 };
        Fsync_drop { rate = 0.03 };
      ];
  }

let mixed_preset =
  {
    name = "io-mixed";
    actions =
      transient_preset.actions @ enospc_preset.actions
      @ torn_preset.actions
      @ [ Hard_eio { rate = 0.002 } ];
  }

let crashy_preset =
  {
    name = "io-crashy";
    actions = mixed_preset.actions @ [ Crash_at { op = 25 } ];
  }

let presets =
  [
    ("io-transient", transient_preset);
    ("io-enospc", enospc_preset);
    ("io-torn", torn_preset);
    ("io-mixed", { mixed_preset with name = "io-mixed" });
    ("io-crashy", { crashy_preset with name = "io-crashy" });
  ]

let preset name = List.assoc_opt name presets
