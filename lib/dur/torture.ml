(* Crash-consistency torture cells.

   Each writer path gets the same treatment a kernel path gets from
   kfault: a deterministic workload, a typed fault schedule, and
   assertions strong enough to indict the writer rather than merely
   crash it.  The two phases are complementary — enumeration proves
   every crash point of the clean trace recovers (the ALICE question),
   live runs prove the retry/deferral/sweep machinery converges when
   faults actually fire (the LiveStack question). *)

module Iohook = Ksurf_util.Iohook
module Fileio = Ksurf_util.Fileio
module Prng = Ksurf_util.Prng
module Journal = Ksurf_recov.Journal
module Csv = Ksurf_report.Csv

type kind = Journal_path | Export_path

let all_kinds = [ Journal_path; Export_path ]

let kind_name = function
  | Journal_path -> "journal"
  | Export_path -> "export"

type config = {
  kind : kind;
  dose : float;
  runs : int;
  seed : int;
  scratch : string;
}

type result = {
  kind : string;
  dose : float;
  trace_ops : int;
  crash_points : int;
  crash_states : int;
  enum_violations : int;
  torn_refused : int;
  live_runs : int;
  live_ok : int;
  recovery_ok : float;
  crashes : int;
  transients : int;
  enospc : int;
  eio : int;
  torn_writes : int;
  fsync_dropped : int;
  deferred_persists : int;
  cells_lost : int;
  double_runs : int;
  litter : int;
  litter_after : int;
}

(* --- small helpers ----------------------------------------------------- *)

let max_attempts = 600
(* Each failed attempt advances the injector's op index by at least
   one, so this bound outlasts the widest scaled ENOSPC window (40 ops
   x dose) with a wide margin; hitting it means recovery is not
   converging, which the cell reports as a failed run. *)

let read_file_opt path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let rec count_tmp dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | entries ->
      Array.fold_left
        (fun n entry ->
          let p = Filename.concat dir entry in
          if Sys.is_directory p then n + count_tmp p
          else if Fileio.is_tmp_name entry then n + 1
          else n)
        0 entries

let fresh_dir dir =
  Crashsim.materialize ~dir { Crashsim.files = [] }

(* Per-run mutable tallies, folded into the cell result. *)
type tally = {
  mutable t_ok : int;
  mutable t_cells_lost : int;
  mutable t_double_runs : int;
  mutable t_litter : int;
  mutable t_litter_after : int;
  mutable t_deferred : int;
  mutable t_enum_violations : int;
  mutable t_torn_refused : int;
}

let tally () =
  {
    t_ok = 0;
    t_cells_lost = 0;
    t_double_runs = 0;
    t_litter = 0;
    t_litter_after = 0;
    t_deferred = 0;
    t_enum_violations = 0;
    t_torn_refused = 0;
  }

(* --- journal workload -------------------------------------------------- *)

let journal_cells = List.init 16 (Printf.sprintf "c%02d")
let journal_flush_every = 4

let journal_file dir = Filename.concat dir "journal"

(* Run the journalled sweep to completion under [fio], recovering from
   every simulated death.  Returns false if recovery failed to
   converge within the attempt budget. *)
let journal_run ~fio ~dir ~t =
  let jp = journal_file dir in
  let rec attempt n =
    if n > max_attempts then false
    else begin
      (* What the disk promises before this attempt: re-executing any
         of these is a double-run (a recorded cell that resume must
         skip).  Read outside the fault scope so the assertion itself
         is not part of the workload. *)
      let promised = Journal.cells (Journal.load ~path:jp ()) in
      match
        Faultio.with_faults fio (fun () ->
            let j = Journal.load ~flush_every:journal_flush_every ~path:jp () in
            List.iter
              (fun k ->
                if not (Journal.mem j k) then begin
                  if List.mem k promised then t.t_double_runs <- t.t_double_runs + 1;
                  Journal.record j k
                end)
              journal_cells;
            (* Drain deferred persists: each failed flush advances the
               op index, so an ENOSPC window eventually clears. *)
            let rec drain m =
              Journal.flush j;
              if Journal.persist_pending j && m < max_attempts then drain (m + 1)
            in
            drain 0;
            t.t_deferred <- t.t_deferred + Journal.deferred j;
            Journal.persist_pending j)
      with
      | still_pending -> not still_pending
      | exception (Iohook.Crashed _ | Fileio.Io_error _) ->
          (* Simulated death (or unretryable I/O failure): recover —
             sweep the litter the dead process left, then resume. *)
          t.t_litter <- t.t_litter + Faultio.with_faults fio (fun () ->
              try Fileio.sweep_tmp ~dir with
              | Iohook.Crashed _ | Fileio.Io_error _ -> 0);
          attempt (n + 1)
    end
  in
  let converged = attempt 0 in
  if converged then begin
    (* Byte-level verdict, outside the fault scope. *)
    let final = Journal.cells (Journal.load ~path:jp ()) in
    let lost =
      List.length (List.filter (fun k -> not (List.mem k final)) journal_cells)
    in
    t.t_cells_lost <- t.t_cells_lost + lost;
    let litter_after = count_tmp dir in
    t.t_litter_after <- t.t_litter_after + litter_after;
    if lost = 0 && litter_after = 0 then t.t_ok <- t.t_ok + 1;
    lost = 0 && litter_after = 0
  end
  else false

let journal_clean dir =
  let j = Journal.load ~flush_every:journal_flush_every ~path:(journal_file dir) () in
  List.iter (Journal.record j) journal_cells;
  Journal.flush j

(* Recovery from one enumerated crash state: sweep, load, finish the
   sweep, and require the journal to end complete with nothing
   double-run and nothing outside the expected key set. *)
let journal_check_state ~dir ~t =
  let jp = journal_file dir in
  match
    let _swept = Fileio.sweep_tmp ~dir in
    let j = Journal.load ~flush_every:journal_flush_every ~path:jp () in
    let loaded = Journal.cells j in
    let subset =
      List.for_all (fun k -> List.mem k journal_cells) loaded
    in
    List.iter
      (fun k -> if not (Journal.mem j k) then Journal.record j k)
      journal_cells;
    Journal.flush j;
    let final = Journal.cells (Journal.load ~path:jp ()) in
    subset
    && List.for_all (fun k -> List.mem k final) journal_cells
    && count_tmp dir = 0
  with
  | true -> ()
  | false -> t.t_enum_violations <- t.t_enum_violations + 1
  | exception _ -> t.t_enum_violations <- t.t_enum_violations + 1

(* --- export workload --------------------------------------------------- *)

let export_file dir = Filename.concat dir "out.csv"

let export_header = [ "env"; "dose"; "p99_us" ]

let export_rows version =
  List.init 12 (fun i ->
      [
        (if i mod 2 = 0 then "native" else "kvm-64");
        Printf.sprintf "%d" version;
        Printf.sprintf "%.2f" (7.5 +. (1.75 *. float_of_int (i + version)));
      ])

let export_write ~dir version =
  Csv.write ~path:(export_file dir) ~header:export_header
    ~rows:(export_rows version)

(* Reference bytes of each complete export version, produced by a
   clean write into a private directory. *)
let export_reference ~scratch =
  let refdir = Filename.concat scratch "ref" in
  fresh_dir refdir;
  List.map
    (fun v ->
      export_write ~dir:refdir v;
      match read_file_opt (export_file refdir) with
      | Some bytes -> bytes
      | None -> "")
    [ 1; 2 ]

let export_run ~fio ~dir ~versions ~t =
  let v1, v2 = (List.nth versions 0, List.nth versions 1) in
  let path = export_file dir in
  let rec attempt n =
    if n > max_attempts then false
    else begin
      (* The invariant, checked at every recovery: the export is never
         partial — absent, old, or new, nothing in between. *)
      (match read_file_opt path with
      | None -> ()
      | Some bytes ->
          if bytes <> v1 && bytes <> v2 then
            t.t_enum_violations <- t.t_enum_violations + 1);
      match
        Faultio.with_faults fio (fun () ->
            export_write ~dir 1;
            export_write ~dir 2)
      with
      | () -> true
      | exception (Iohook.Crashed _ | Fileio.Io_error _) ->
          t.t_litter <- t.t_litter + Faultio.with_faults fio (fun () ->
              try Fileio.sweep_tmp ~dir with
              | Iohook.Crashed _ | Fileio.Io_error _ -> 0);
          attempt (n + 1)
    end
  in
  let converged = attempt 0 in
  if converged then begin
    let ok = read_file_opt path = Some v2 in
    let litter_after = count_tmp dir in
    t.t_litter_after <- t.t_litter_after + litter_after;
    if ok && litter_after = 0 then t.t_ok <- t.t_ok + 1;
    ok && litter_after = 0
  end
  else false

let export_clean dir =
  export_write ~dir 1;
  export_write ~dir 2

let export_check_state ~dir ~versions ~t =
  let v1, v2 = (List.nth versions 0, List.nth versions 1) in
  let _swept = try Fileio.sweep_tmp ~dir with Fileio.Io_error _ -> 0 in
  (match read_file_opt (export_file dir) with
  | None -> ()
  | Some bytes ->
      if bytes <> v1 && bytes <> v2 then
        t.t_enum_violations <- t.t_enum_violations + 1);
  if count_tmp dir <> 0 then t.t_enum_violations <- t.t_enum_violations + 1

(* --- the cell ---------------------------------------------------------- *)

let live_plan ~dose ~crash_op =
  let scaled = Durplan.scale dose Durplan.io_mixed in
  if dose <= 0.0 then scaled
  else
    {
      scaled with
      Durplan.actions = scaled.Durplan.actions @ [ Durplan.Crash_at { op = crash_op } ];
    }

(* Truncating the journal mid-line must drop the torn line (its
   checksum fails) and at worst forget the torn tail, never invent
   state. *)
let synthetic_torn ~kind ~dir ~t clean_bytes =
  match kind with
  | Journal_path ->
      List.iter
        (fun frac ->
          let cut = int_of_float (frac *. float_of_int (String.length clean_bytes)) in
          Crashsim.materialize ~dir
            { Crashsim.files = [ ("journal", String.sub clean_bytes 0 cut) ] };
          (match Journal.cells (Journal.load ~path:(journal_file dir) ()) with
          | loaded ->
              if List.for_all (fun k -> List.mem k journal_cells) loaded then begin
                if List.length loaded < List.length journal_cells then
                  t.t_torn_refused <- t.t_torn_refused + 1
              end
              else t.t_enum_violations <- t.t_enum_violations + 1
          | exception _ -> t.t_enum_violations <- t.t_enum_violations + 1))
        [ 0.98; 0.6; 0.25 ]
  | Export_path -> ()

let run (cfg : config) =
  let t = tally () in
  Fileio.ensure_dir cfg.scratch;
  let versions =
    match cfg.kind with
    | Export_path -> export_reference ~scratch:cfg.scratch
    | _ -> []
  in

  (* Phase 1: enumeration over the clean trace. *)
  let trace_dir = Filename.concat cfg.scratch "trace" in
  fresh_dir trace_dir;
  let outcome, trace =
    Crashsim.record ~root:trace_dir (fun () ->
        match cfg.kind with
        | Journal_path -> journal_clean trace_dir
        | Export_path -> export_clean trace_dir)
  in
  (match outcome with
  | Ok () -> ()
  | Error _ -> t.t_enum_violations <- t.t_enum_violations + 1);
  let states = Crashsim.enumerate trace in
  let enum_dir = Filename.concat cfg.scratch "enum" in
  List.iter
    (fun (_k, st) ->
      Crashsim.materialize ~dir:enum_dir st;
      match cfg.kind with
      | Journal_path -> journal_check_state ~dir:enum_dir ~t
      | Export_path -> export_check_state ~dir:enum_dir ~versions ~t)
    states;
  (* The post-return guarantee: what the writer promised must be in
     the durable-min state of the complete trace — this is exactly the
     assertion the missing directory fsync used to fail. *)
  Crashsim.materialize ~dir:enum_dir (Crashsim.final_durable trace);
  (match cfg.kind with
  | Journal_path ->
      let final = Journal.cells (Journal.load ~path:(journal_file enum_dir) ()) in
      if not (List.for_all (fun k -> List.mem k final) journal_cells) then
        t.t_enum_violations <- t.t_enum_violations + 1
  | Export_path ->
      if read_file_opt (export_file enum_dir) <> Some (List.nth versions 1) then
        t.t_enum_violations <- t.t_enum_violations + 1);
  let clean_bytes =
    let artefact =
      match cfg.kind with
      | Journal_path -> journal_file trace_dir
      | Export_path -> export_file trace_dir
    in
    Option.value ~default:"" (read_file_opt artefact)
  in
  let torn_dir = Filename.concat cfg.scratch "torn" in
  synthetic_torn ~kind:cfg.kind ~dir:torn_dir ~t clean_bytes;
  let synthetic =
    match cfg.kind with Journal_path -> 3 | Export_path -> 0
  in

  (* Phase 2: live faulted runs. *)
  let p_crash = Prng.split (Prng.create cfg.seed) ("torture-" ^ kind_name cfg.kind) in
  let stats = ref { Faultio.ops = 0; transients = 0; enospc = 0; eio = 0; torn = 0; fsync_dropped = 0; crashes = 0 } in
  for r = 0 to cfg.runs - 1 do
    let run_dir = Filename.concat cfg.scratch (Printf.sprintf "run%02d" r) in
    fresh_dir run_dir;
    let crash_op = 2 + Prng.int p_crash (max 1 (List.length trace)) in
    let plan = live_plan ~dose:cfg.dose ~crash_op in
    let fio = Faultio.make ~root:run_dir ~seed:(cfg.seed + (977 * r)) plan in
    let _converged =
      match cfg.kind with
      | Journal_path -> journal_run ~fio ~dir:run_dir ~t
      | Export_path -> export_run ~fio ~dir:run_dir ~versions ~t
    in
    let s = Faultio.stats fio in
    stats :=
      {
        Faultio.ops = !stats.Faultio.ops + s.Faultio.ops;
        transients = !stats.Faultio.transients + s.Faultio.transients;
        enospc = !stats.Faultio.enospc + s.Faultio.enospc;
        eio = !stats.Faultio.eio + s.Faultio.eio;
        torn = !stats.Faultio.torn + s.Faultio.torn;
        fsync_dropped = !stats.Faultio.fsync_dropped + s.Faultio.fsync_dropped;
        crashes = !stats.Faultio.crashes + s.Faultio.crashes;
      }
  done;
  let s = !stats in
  {
    kind = kind_name cfg.kind;
    dose = cfg.dose;
    trace_ops = List.length trace;
    crash_points = Crashsim.crash_points trace;
    crash_states = List.length states + synthetic;
    enum_violations = t.t_enum_violations;
    torn_refused = t.t_torn_refused;
    live_runs = cfg.runs;
    live_ok = t.t_ok;
    recovery_ok =
      (if cfg.runs = 0 then 1.0 else float_of_int t.t_ok /. float_of_int cfg.runs);
    crashes = s.Faultio.crashes;
    transients = s.Faultio.transients;
    enospc = s.Faultio.enospc;
    eio = s.Faultio.eio;
    torn_writes = s.Faultio.torn;
    fsync_dropped = s.Faultio.fsync_dropped;
    deferred_persists = t.t_deferred;
    cells_lost = t.t_cells_lost;
    double_runs = t.t_double_runs;
    litter = t.t_litter;
    litter_after = t.t_litter_after;
  }

let violations r =
  r.enum_violations + r.cells_lost + r.double_runs + r.litter_after
  + (r.live_runs - r.live_ok)
