(* Host-I/O fault plans.

   Same discipline as lib/fault/plan.ml, one layer down: typed actions
   and a dose knob, but the events being perturbed are host I/O
   operations (open / write / fsync / rename / ...) rather than
   simulated syscalls, so a torture run is scaled exactly like a kfault
   run. *)

type action =
  | Transient of { rate : float; eintr_share : float }
  | Enospc_window of { from_op : int; until_op : int }
  | Hard_eio of { rate : float }
  | Torn_write of { rate : float; keep : float }
  | Fsync_drop of { rate : float }
  | Crash_at of { op : int }

type t = { name : string; actions : action list }

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

(* Rates are per-op, sized for torture workloads of a few hundred ops
   per run: at dose 1 a run sees a handful of transients, roughly one
   hard fault, and one mid-run ENOSPC episode — enough to exercise
   every recovery path without making progress improbable. *)
let io_mixed =
  {
    name = "io-mixed";
    actions =
      [
        Transient { rate = 0.04; eintr_share = 0.5 };
        Enospc_window { from_op = 40; until_op = 80 };
        Torn_write { rate = 0.02; keep = 0.5 };
        Fsync_drop { rate = 0.03 };
        Hard_eio { rate = 0.002 };
      ];
  }
