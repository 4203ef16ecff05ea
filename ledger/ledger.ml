(* ledger: the benchmark of the ksurf simulator's host cost.

     sh ledger/run.sh --workload W --seed N --seconds S --trace 0|1
     sh ledger/run.sh ledger [--seed N] [--only W,..] [--trace] [--out PATH]
     sh ledger/run.sh compare A.json B.json
     sh ledger/run.sh smoke

   The first form measures one workload for S seconds and prints one
   JSON result line: end-to-end metrics untraced, per-layer metrics
   with --trace 1.  [ledger] runs that same form round-robin, one short
   child run per (workload, round), and writes BENCH_ledger.json;
   [compare] checks two such files against the bounds in
   BENCHMARK.json.  See README.md. *)

module K = Ksurf
module W = Workloads

let usage =
  "usage: ledger.exe --workload W [--seed N] [--seconds S] [--trace 0|1] | ledger \
   [--seed N] [--only W,..] [--trace] [--out PATH] | compare A.json B.json | smoke"

exception Usage of string

let usage_error fmt = Printf.ksprintf (fun s -> raise (Usage s)) fmt

(* ------------------------------------------------------------------ *)
(* Statistics, as Python's statistics module computes them, so numbers
   printed here match what a reader recomputes from the samples. *)

let sorted l = List.sort Float.compare l

let median l =
  match Array.of_list (sorted l) with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* statistics.quantiles(l, n=4), the default "exclusive" method. *)
let quartiles l =
  let a = Array.of_list (sorted l) in
  let ld = Array.length a in
  if ld < 2 then (median l, median l)
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float (4 - delta)) +. (a.(j) *. float delta)) /. 4.0
    in
    (q 1, q 3)

let minimum l = List.fold_left Float.min infinity l

(* ------------------------------------------------------------------ *)
(* Host speed.

   The speed a vCPU of a shared virtual machine delivers drifts by
   10-35% over minutes, and memory-heavy code like the simulator slows
   with it.  A fixed loop that calls none of the repo's code — filling a
   hash table with small boxed values, as the simulator allocates — is
   timed before every pass.  Its fastest time is the run's speed, and
   host times are reported as they would read at [reference_speed_s],
   roughly the loop's time on the machine the baseline was recorded on.
   Of the loops tried (an L2 table walk, allocation streaming, a DRAM
   pointer chase, a small event loop over a large heap, and means of
   these), this one tracked the simulator best in both quiet and busy
   hours; README.md has the numbers. *)

let reference_speed_s = 0.009

let table_fill () =
  let h = Hashtbl.create 1024 in
  for i = 1 to 60_000 do
    Hashtbl.replace h ((i * 7919) land 0xffff) (Some (float i, [ i ]))
  done;
  Hashtbl.fold (fun _ v acc -> match v with Some (f, _) -> acc +. f | None -> acc) h 0.0

let timed f =
  let t0 = K.Clock.now_s () in
  ignore (Sys.opaque_identity (f ()));
  K.Clock.elapsed_s ~since:t0

let speed_samples_per_pass = 5

(* Set-ups timed per sample; a sample keeps the fastest. *)
let setups_per_sample = 10

(* Peak resident set (VmHWM) in kB, 0 where /proc does not provide it. *)
let peak_rss_kb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | Some line when String.starts_with ~prefix:"VmHWM:" line ->
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
          | Some _ -> scan ()
          | None -> 0
        in
        scan ())
  with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> 0

(* ------------------------------------------------------------------ *)
(* Metric names.  BENCHMARK.json lists exactly these; [smoke] checks. *)

let end_to_end =
  [ ("sim_s", "s"); ("setup_s", "s"); ("peak_rss_mb", "MB"); ("minor_mwords", "Mwords") ]

let lock_classes = [ "audit"; "journal"; "dcache"; "tasklist" ]

(* ------------------------------------------------------------------ *)
(* One workload, measured in this process.                              *)

type pass = { wall : float; cells : W.cell list }

type outcome = {
  workload : string;
  seed : int;
  attempted : int;
  failed : int;
  errors : string list;
  fingerprints : (string * string) list;  (** cell -> first fingerprint *)
  metrics : (string * string * float) list;  (** name, unit, value *)
  samples : (string * Json.t) list;
}

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

let layer_total name cells =
  sum (fun (c : W.cell) -> Option.value (List.assoc_opt name c.layer) ~default:0.0) cells

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Each cell's host times over the passes.  Every pass of a run runs
   the same cells. *)
let cell_times = function
  | [] -> []
  | first :: _ as passes ->
      List.map
        (fun (c : W.cell) ->
          ( c.cell,
            List.map
              (fun p -> (List.find (fun (d : W.cell) -> d.cell = c.cell) p.cells).seconds)
              passes ))
        first.cells

(* Per-layer metrics of one traced run.  Counts come from the traced
   pass (they are deterministic); host time and allocation per event
   from the untraced passes beside it, which the probe does not slow. *)
let per_layer ~(w : W.t) ~untraced ~traced ~tracer ~rows =
  let first = List.hd untraced in
  let traced_pass = List.hd traced in
  let events = float (List.fold_left (fun a (c : W.cell) -> a + c.events) 0 first.cells) in
  let counts = Tracer.merge (List.filter_map (fun (c : W.cell) -> c.counts) traced_pass.cells) in
  let walls l = median (List.map (fun p -> p.wall) l) in
  let words = median (List.map (fun p -> sum (fun (c : W.cell) -> c.words) p.cells) untraced) in
  let cell_seconds = List.map (fun (c : W.cell) -> c.seconds) first.cells in
  let journal_s =
    Tracer.total_seconds tracer "recov.journal.record"
    +. Tracer.total_seconds tracer "recov.journal.flush"
  in
  let count name v = (name, "count", v) in
  let frac name v = (name, "fraction", v) in
  [
    count "sim.engine.events" events;
    count "sim.engine.scheduled" (float counts.scheduled);
    count "sim.engine.suspends" (float counts.suspends);
    ("sim.engine.words_per_event", "words", ratio words events);
    ("sim.engine.host_ns_per_event", "ns", ratio (walls untraced *. 1e9) events);
    count "sim.sync.acquires" (float counts.acquires);
    frac "sim.sync.contended_frac" (ratio (float counts.contended) (float counts.acquires));
    count "sim.sync.barrier_arrivals" (float counts.barrier_arrivals);
  ]
  @ List.map
      (fun k ->
        frac (Printf.sprintf "kernel.lock.%s.contended_frac" k)
          (Tracer.class_contended_frac counts k))
      lock_classes
  @ [
      ("kernel.lock.wait_vns_per_acquire", "vns", ratio counts.wait_vns (float counts.acquires));
      count "analysis.probe_events" (layer_total "analysis.probe_events" traced_pass.cells);
      count "varbench.harness.calls" (layer_total "varbench.harness.calls" first.cells);
      count "tailbench.runner.requests" (layer_total "tailbench.runner.requests" first.cells);
      count "tenant.fleet.requests" (layer_total "tenant.fleet.requests" first.cells);
      count "tenant.fleet.arrivals" (layer_total "tenant.fleet.arrivals" first.cells);
      count "tenant.fleet.cgroup_storms" (layer_total "tenant.fleet.cgroup_storms" first.cells);
      count "par.pool.cells" (float (List.length first.cells));
      frac "par.pool.busy_frac"
        (ratio (List.fold_left ( +. ) 0.0 cell_seconds) (first.wall *. float w.jobs));
      ("par.pool.max_cell_s", "s", List.fold_left Float.max 0.0 cell_seconds);
      count "recov.journal.persists" (layer_total "recov.journal.persists" traced_pass.cells);
      frac "recov.journal.persist_frac" (ratio journal_s traced_pass.wall);
      frac "trace.overhead_frac" ((walls traced /. walls untraced) -. 1.0);
    ]
  @ List.map (fun (r : Layers.row) -> (r.name, r.unit_, r.value)) rows

(* A run: one warm-up pass, then {set-up sample, speed samples, timed
   pass} until [seconds] are up — at least once.  [warmup] is off only
   for the smoke test. *)
let run_workload ~(w : W.t) ~scale ~seed ~seconds ~warmup ~trace ~workdir ~trace_dir
    ~reference =
  K.Pool.tune_minor_heap ();
  K.Fileio.ensure_dir workdir;
  let inputs = W.make_inputs ~scale ~seed in
  let executed = ref [] in
  let untraced = ref [] and traced = ref [] and setups = ref [] in
  let speeds = ref [] in
  let first_tracer = ref None in
  (* Peak RSS after a fixed amount of work — the warm-up, one set-up
     sample and one pass — since the high-water mark keeps creeping up
     with every further pass, and how many passes fit in the run depends
     on how fast the host is. *)
  let peak_rss_mb = ref nan in
  (* The pool is shut down before the layer rows run, which start their
     own: never more than two domains. *)
  K.Pool.with_pool ~jobs:w.jobs (fun pool ->
      let one_pass tracer =
        let t0 = K.Clock.now_s () in
        let cells =
          Tracer.span tracer "pass" (fun () -> w.pass ~tracer ~pool ~workdir inputs)
        in
        let wall = K.Clock.elapsed_s ~since:t0 in
        executed := List.rev_append cells !executed;
        { wall; cells }
      in
      (* A sample starts on a collected heap, as a user's set-up does at
         start-up; otherwise it pays for the collection of the previous
         pass's garbage.  It keeps the fastest of its set-ups. *)
      let setup_sample () =
        Gc.major ();
        minimum (List.init setups_per_sample (fun _ -> timed (fun () -> w.setup inputs)))
      in
      if warmup then ignore (one_pass None);
      let start = K.Clock.now_s () in
      while !untraced = [] || K.Clock.elapsed_s ~since:start < seconds do
        setups := setup_sample () :: !setups;
        for _ = 1 to speed_samples_per_pass do
          speeds := timed table_fill :: !speeds
        done;
        untraced := one_pass None :: !untraced;
        if Float.is_nan !peak_rss_mb then peak_rss_mb := float (peak_rss_kb ()) /. 1024.0;
        if trace then begin
          let tracer = Tracer.create () in
          traced := one_pass (Some tracer) :: !traced;
          if !first_tracer = None then first_tracer := Some tracer
        end
      done);
  let untraced = List.rev !untraced and traced = List.rev !traced in
  (* Correctness: every execution of a cell renders the same result,
     and at the reference seed the committed one. *)
  let executed = List.rev !executed in
  let first_seen =
    List.fold_left
      (fun acc (c : W.cell) ->
        if List.mem_assoc c.cell acc then acc else acc @ [ (c.cell, c.fingerprint) ])
      [] executed
  in
  let problem (c : W.cell) =
    match c.error with
    | Some e -> Some (c.cell ^ ": " ^ e)
    | None ->
        let want =
          match List.assoc_opt c.cell reference with
          | Some fp -> fp
          | None -> List.assoc c.cell first_seen
        in
        if c.fingerprint <> want then
          Some (Printf.sprintf "%s: fingerprint %s, expected %s" c.cell c.fingerprint want)
        else None
  in
  let problems = List.filter_map problem executed in
  let cells = cell_times untraced in
  let mwords = List.map (fun p -> sum (fun (c : W.cell) -> c.words) p.cells /. 1e6) untraced in
  let speeds = List.rev !speeds in
  let speed_s = minimum speeds in
  let at_reference x = x *. reference_speed_s /. speed_s in
  let setups = List.rev !setups in
  let metrics =
    if trace then begin
      let tracer = Option.get !first_tracer in
      Option.iter
        (fun dir ->
          K.Fileio.ensure_dir dir;
          Json.write_file
            (Filename.concat dir (Printf.sprintf "trace-%s.json" w.name))
            (Json.Obj
               [
                 ("workload", Json.Str w.name);
                 ("seed", Json.Num (float seed));
                 ("trace", Tracer.to_json tracer);
               ]))
        trace_dir;
      let rows = Layers.rows ~quick:(scale = W.Smoke) ~workdir inputs in
      per_layer ~w ~untraced ~traced ~tracer ~rows
    end
    else
      (* Host time: each cell's fastest execution in the run, summed over
         the pass's cells, at reference speed.  Other tenants of the host
         only ever slow a cell down, and a cell (0.06-0.6 s) finds an
         undisturbed stretch far more often than a whole pass does.  On
         two domains the sum counts both, so it is not the pass's wall
         time; par.pool.busy_frac shows how well the cells overlap. *)
      [
        ("sim_s", "s", at_reference (sum (fun (_, l) -> minimum l) cells));
        ("setup_s", "s", at_reference (median setups));
        ("peak_rss_mb", "MB", !peak_rss_mb);
        ("minor_mwords", "Mwords", median mwords);
      ]
  in
  let nums l = Json.Arr (List.map (fun x -> Json.Num x) l) in
  {
    workload = w.name;
    seed;
    attempted = List.length executed;
    failed = List.length problems;
    errors = List.sort_uniq compare problems;
    fingerprints = first_seen;
    metrics;
    samples =
      [
        ("pass_wall_s", nums (List.map (fun p -> p.wall) untraced));
        ("traced_pass_wall_s", nums (List.map (fun p -> p.wall) traced));
        ("cell_s", Json.Obj (List.map (fun (name, l) -> (name, nums l)) cells));
        ("setup_s", nums setups);
        ("speed_s", nums speeds);
        ("minor_mwords", nums mwords);
      ];
  }

let result_json o =
  Json.Obj
    [
      ("correct", Json.Bool (o.failed = 0));
      ("attempted", Json.Num (float o.attempted));
      ("failed", Json.Num (float o.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, unit_, v) ->
               (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit_) ]))
             o.metrics) );
    ]

let detail_json o =
  Json.Obj
    [
      ( "detail",
        Json.Obj
          [
            ("workload", Json.Str o.workload);
            ("seed", Json.Num (float o.seed));
            ("samples", Json.Obj o.samples);
            ( "fingerprints",
              Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) o.fingerprints) );
            ("errors", Json.Arr (List.map (fun e -> Json.Str e) o.errors));
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Command-line plumbing.                                               *)

let parse_flags ~bools ~values args =
  let rec go flags pos = function
    | [] -> (flags, List.rev pos)
    | f :: rest when List.mem f bools -> go ((f, "1") :: flags) pos rest
    | f :: v :: rest when List.mem f values -> go ((f, v) :: flags) pos rest
    | f :: _ when String.length f > 1 && f.[0] = '-' ->
        usage_error "unknown option or missing value: %s" f
    | p :: rest -> go flags (p :: pos) rest
  in
  go [] [] args

let flag flags name = List.assoc_opt name flags

let int_flag flags name ~default ~min =
  match flag flags name with
  | None -> default
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= min -> n
      | _ -> usage_error "%s expects an integer >= %d, got %S" name min s)

let workload_named name =
  match W.find name with
  | Some w -> w
  | None -> usage_error "unknown workload %S (known: %s)" name (String.concat ", " W.names)

let default_workdir = Filename.concat ".bench_build" "ledger"
let reference_path = Filename.concat "ledger" "BENCH_ledger.json"

(* Committed fingerprints, when the baseline holds a reference for this
   seed. *)
let reference_for ~seed ~workload =
  match Json.read_file reference_path with
  | Error e ->
      Printf.eprintf "ledger: no reference fingerprints (%s)\n%!" e;
      []
  | Ok doc -> (
      match Json.to_float (Json.path [ "reference"; "seed" ] doc) with
      | Some s when int_of_float s = seed ->
          List.filter_map
            (fun (cell, v) -> Option.map (fun fp -> (cell, fp)) (Json.to_str (Some v)))
            (Json.to_assoc (Json.path [ "reference"; "fingerprints"; workload ] doc))
      | _ -> [])

let run_cmd args =
  let flags, pos =
    parse_flags ~bools:[] ~values:[ "--workload"; "--seed"; "--seconds"; "--trace" ] args
  in
  if pos <> [] then usage_error "unexpected argument %S" (List.hd pos);
  let w =
    match flag flags "--workload" with
    | Some name -> workload_named name
    | None -> usage_error "--workload is required"
  in
  let seed = int_flag flags "--seed" ~default:42 ~min:0 in
  let seconds = float (int_flag flags "--seconds" ~default:10 ~min:1) in
  let trace =
    match flag flags "--trace" with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some s -> usage_error "--trace expects 0 or 1, got %S" s
  in
  let o =
    run_workload ~w ~scale:W.Full ~seed ~seconds ~warmup:true ~trace ~workdir:default_workdir
      ~trace_dir:(Some default_workdir) ~reference:(reference_for ~seed ~workload:w.name)
  in
  List.iter (fun e -> Printf.eprintf "ledger: %s: %s\n" w.name e) o.errors;
  print_endline (Json.to_string (detail_json o));
  print_endline (Json.to_string (result_json o));
  0

(* ------------------------------------------------------------------ *)
(* ledger: every workload, round-robin across rounds.                    *)

(* Host slowdowns on a shared box last minutes, so the ledger spreads
   each workload's samples over the whole run: [rounds] rounds, each one
   short run per workload, in a fixed order rotated by one each round.
   A child is the benchmark's own command with [child_seconds]: one
   warm-up pass, then one measured pass, so its numbers are those a full
   run reports, by the same definitions, from fewer passes. *)
let rounds = 7
let child_seconds = 1

let child ~exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
  match (status, List.rev lines) with
  | Unix.WEXITED 0, result :: detail :: _ -> (
      match (Json.of_string detail, Json.of_string result) with
      | Ok d, Ok r -> (
          match Json.member "detail" d with
          | Some detail -> Ok (detail, r)
          | None -> Error "child printed no detail line")
      | Error e, _ | _, Error e -> Error ("unparsable child output: " ^ e))
  | _ -> Error (Printf.sprintf "child %s failed" (String.concat " " args))

let rotate l k =
  let n = List.length l in
  List.init n (fun i -> List.nth l ((i + k) mod n))

let metric_value result name =
  Json.to_float (Json.path [ "metrics"; name; "value" ] result)

(* HEAD, marked "+dirty" when the tree has changes git would commit. *)
let git_revision () =
  let git args =
    try
      let ic = Unix.open_process_args_in "git" (Array.of_list ("git" :: args)) in
      let out = String.trim (In_channel.input_all ic) in
      match Unix.close_process_in ic with Unix.WEXITED 0 -> Some out | _ -> None
    with Unix.Unix_error _ -> None
  in
  if not (Sys.file_exists ".git") then "unknown"
  else
    match (git [ "rev-parse"; "HEAD" ], git [ "status"; "--porcelain" ]) with
    | Some rev, Some "" -> rev
    | Some rev, Some _ -> rev ^ "+dirty"
    | _ -> "unknown"

let manifest ~seed ~workloads =
  K.Pool.tune_minor_heap ();
  let env =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv ->
           String.starts_with ~prefix:"OCAMLRUNPARAM=" kv
           || String.starts_with ~prefix:"KSURF_" kv)
    |> List.sort compare
  in
  Json.Obj
    [
      ("seed", Json.Num (float seed));
      ("rounds", Json.Num (float rounds));
      ("child_seconds", Json.Num (float child_seconds));
      ("host_cores", Json.Num (float (Domain.recommended_domain_count ())));
      ("git_revision", Json.Str (git_revision ()));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("minor_heap_words", Json.Num (float (Gc.get ()).Gc.minor_heap_size));
      ("reference_speed_s", Json.Num reference_speed_s);
      ("environment", Json.Arr (List.map (fun kv -> Json.Str kv) env));
      ( "jobs",
        Json.Obj (List.map (fun (w : W.t) -> (w.name, Json.Num (float w.jobs))) workloads) );
      ("host_time", Json.Str "host seconds on an unvalidated simulation model");
    ]

let ledger_cmd args =
  let flags, pos = parse_flags ~bools:[ "--trace" ] ~values:[ "--seed"; "--only"; "--out" ] args in
  if pos <> [] then usage_error "unexpected argument %S" (List.hd pos);
  let seed = int_flag flags "--seed" ~default:42 ~min:0 in
  let trace = flag flags "--trace" = Some "1" in
  let workloads =
    match flag flags "--only" with
    | None -> W.all
    | Some l -> List.map workload_named (String.split_on_char ',' l)
  in
  (* The committed baseline is only ever replaced on purpose. *)
  let out =
    Option.value (flag flags "--out") ~default:(Filename.concat default_workdir "BENCH_ledger.json")
  in
  let exe = Sys.executable_name in
  let results = Hashtbl.create 8 in
  let failures = Hashtbl.create 8 in
  let fail w msg =
    Printf.eprintf "ledger: %s: %s\n%!" w msg;
    Hashtbl.replace failures w (msg :: Option.value (Hashtbl.find_opt failures w) ~default:[])
  in
  (* A child that dies counts as one failed cell. *)
  let crashes = Hashtbl.create 8 in
  let run_child (w : W.t) ~trace =
    let args =
      [ "--workload"; w.name; "--seed"; string_of_int seed; "--seconds";
        string_of_int child_seconds; "--trace"; (if trace then "1" else "0") ]
    in
    match child ~exe args with
    | Ok dr -> Some dr
    | Error e ->
        fail w.name e;
        Hashtbl.replace crashes w.name (1 + Option.value (Hashtbl.find_opt crashes w.name) ~default:0);
        None
  in
  let t0 = K.Clock.now_s () in
  for r = 0 to rounds - 1 do
    List.iter
      (fun (w : W.t) ->
        Option.iter
          (fun dr ->
            Hashtbl.replace results w.name
              (Option.value (Hashtbl.find_opt results w.name) ~default:[] @ [ dr ]))
          (run_child w ~trace:false))
      (rotate workloads r)
  done;
  let traced =
    if not trace then []
    else
      List.filter_map
        (fun (w : W.t) -> Option.map (fun dr -> (w.name, dr)) (run_child w ~trace:true))
        workloads
  in
  let fps detail =
    List.map
      (fun (k, v) -> (k, Option.value (Json.to_str (Some v)) ~default:""))
      (Json.to_assoc (Json.member "fingerprints" detail))
  in
  let summary (w : W.t) =
    let runs = Option.value (Hashtbl.find_opt results w.name) ~default:[] in
    (* Children check their cells against the committed reference; the
       rounds, traced ones included, must also agree with each other. *)
    let checked = runs @ Option.to_list (List.assoc_opt w.name traced) in
    let reference = match runs with (d, _) :: _ -> fps d | [] -> [] in
    let mismatched detail =
      List.length
        (List.filter (fun (cell, fp) -> List.assoc_opt cell reference <> Some fp) (fps detail))
    in
    let drift = List.fold_left (fun a (d, _) -> a + mismatched d) 0 checked in
    if drift > 0 then fail w.name (Printf.sprintf "%d fingerprint(s) differ between rounds" drift);
    let crashed = Option.value (Hashtbl.find_opt crashes w.name) ~default:0 in
    let total key =
      List.fold_left
        (fun a (_, r) -> a + int_of_float (Option.value (Json.to_float (Json.member key r)) ~default:0.0))
        0 checked
    in
    let child_failed = total "failed" in
    if child_failed > 0 then fail w.name (Printf.sprintf "%d failed cell(s)" child_failed);
    let attempted = crashed + total "attempted" and failed = crashed + child_failed + drift in
    let e2e =
      List.map
        (fun (name, unit_) ->
          let values = List.filter_map (fun (_, r) -> metric_value r name) runs in
          let p25, p75 = quartiles values in
          ( name,
            Json.Obj
              [
                ("median", Json.Num (median values));
                ("p25", Json.Num p25);
                ("p75", Json.Num p75);
                ("n", Json.Num (float (List.length values)));
                ("unit", Json.Str unit_);
              ] ))
        end_to_end
    in
    let per_layer =
      match List.assoc_opt w.name traced with
      | Some (_, r) -> [ ("per_layer", Json.Obj (Json.to_assoc (Json.member "metrics" r))) ]
      | None -> []
    in
    ( w.name,
      reference,
      Json.Obj
        ([
           ("end_to_end", Json.Obj e2e);
           ("attempted", Json.Num (float attempted));
           ("failed", Json.Num (float failed));
           ("failed_frac", Json.Num (ratio (float failed) (float (max 1 attempted))));
         ]
        @ per_layer) )
  in
  let summaries = List.map summary workloads in
  let doc =
    Json.Obj
      [
        ("schema", Json.Num 1.0);
        ("benchmark", Json.Str "ledger");
        ("manifest", manifest ~seed ~workloads);
        ("workloads", Json.Obj (List.map (fun (n, _, j) -> (n, j)) summaries));
        ( "reference",
          Json.Obj
            [
              ("seed", Json.Num (float seed));
              ( "fingerprints",
                Json.Obj
                  (List.map
                     (fun (n, fps, _) ->
                       (n, Json.Obj (List.map (fun (c, fp) -> (c, Json.Str fp)) fps)))
                     summaries) );
            ] );
      ]
  in
  Printf.printf "%-18s %-13s %12s %12s %12s   n\n" "workload" "metric" "median" "p25" "p75";
  List.iter
    (fun (name, _, j) ->
      List.iter
        (fun (m, unit_) ->
          let get k = Option.value (Json.to_float (Json.path [ "end_to_end"; m; k ] j)) ~default:nan in
          Printf.printf "%-18s %-13s %12.5g %12.5g %12.5g   %d %s\n" name m (get "median")
            (get "p25") (get "p75") (int_of_float (get "n")) unit_)
        end_to_end;
      Printf.printf "%-18s failed_frac %g\n" name
        (Option.value (Json.to_float (Json.member "failed_frac" j)) ~default:nan))
    summaries;
  Printf.printf "ledger: %d round(s) in %.1f s\n" rounds (K.Clock.elapsed_s ~since:t0);
  Json.write_file out doc;
  Printf.printf "ledger: wrote %s\n" out;
  if Hashtbl.length failures > 0 then 1 else 0

(* ------------------------------------------------------------------ *)
(* compare: two ledgers against BENCHMARK.json's bounds.                  *)

let compare_cmd args =
  let _, pos = parse_flags ~bools:[] ~values:[] args in
  let a_path, b_path =
    match pos with
    | [ a; b ] -> (a, b)
    | _ -> usage_error "compare expects two ledger files"
  in
  let load p =
    match Json.read_file p with
    | Ok j -> j
    | Error e -> usage_error "cannot read %s: %s" p e
  in
  let bench = load "BENCHMARK.json" in
  let a = load a_path and b = load b_path in
  let bounds =
    List.filter_map
      (fun m ->
        match
          ( Json.to_str (Json.member "name" m),
            Json.to_float (Json.member "bound" m),
            Json.to_str (Json.member "better" m) )
        with
        | Some n, Some bound, Some better -> Some (n, bound, better = "higher")
        | _ -> None)
      (Json.to_list (Json.member "end_to_end" bench))
  in
  let workloads j = List.map fst (Json.to_assoc (Json.member "workloads" j)) in
  let worse = ref 0 in
  Printf.printf "%-18s %-13s %26s %26s %8s %6s  %s\n" "workload" "metric" "A median [p25,p75]"
    "B median [p25,p75]" "delta" "bound" "verdict";
  List.iter
    (fun w ->
      if not (List.mem w (workloads b)) then Printf.printf "%-18s missing from %s\n" w b_path
      else begin
        List.iter
          (fun (m, bound, higher_better) ->
            let get j k =
              Json.to_float (Json.path [ "workloads"; w; "end_to_end"; m; k ] j)
            in
            match (get a "median", get b "median") with
            | Some ma, Some mb ->
                let q j = (Option.value (get j "p25") ~default:nan, Option.value (get j "p75") ~default:nan) in
                let (a25, a75), (b25, b75) = (q a, q b) in
                let delta = ratio (mb -. ma) ma in
                let worsening = if higher_better then -.delta else delta in
                let spread m lo hi = ratio (hi -. lo) (Float.abs m) in
                let unresolved = spread ma a25 a75 > bound || spread mb b25 b75 > bound in
                let verdict =
                  if worsening > bound then begin
                    incr worse;
                    "WORSE"
                  end
                  else if unresolved then "unresolved"
                  else if worsening < -.bound then "better"
                  else "same"
                in
                Printf.printf "%-18s %-13s %10.4g [%6.4g,%6.4g] %10.4g [%6.4g,%6.4g] %+7.1f%% %5.1f%%  %s\n"
                  w m ma a25 a75 mb b25 b75 (100.0 *. delta) (100.0 *. bound) verdict
            | _ -> Printf.printf "%-18s %-13s missing\n" w m)
          bounds;
        let ff j =
          Option.value (Json.to_float (Json.path [ "workloads"; w; "failed_frac" ] j)) ~default:0.0
        in
        if ff b > ff a then begin
          incr worse;
          Printf.printf "%-18s failed_frac rose: %g -> %g  WORSE\n" w (ff a) (ff b)
        end
      end)
    (workloads a);
  if !worse > 0 then 1 else 0

(* ------------------------------------------------------------------ *)
(* smoke: every workload at seconds scale, as a runtest.                 *)

let smoke_cmd args =
  let flags, pos = parse_flags ~bools:[] ~values:[ "--benchmark" ] args in
  if pos <> [] then usage_error "unexpected argument %S" (List.hd pos);
  let bench =
    match Json.read_file (Option.value (flag flags "--benchmark") ~default:"BENCHMARK.json") with
    | Ok j -> j
    | Error e -> usage_error "cannot read BENCHMARK.json: %s" e
  in
  let declared section =
    List.filter_map
      (fun m ->
        match (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)) with
        | Some n, Some u -> Some (n, u)
        | _ -> None)
      (Json.to_list (Json.member section bench))
    |> List.sort compare
  in
  let problems = ref [] in
  let check ok fmt =
    Printf.ksprintf (fun msg -> if not ok then problems := msg :: !problems) fmt
  in
  let workdir = Filename.concat default_workdir "smoke" in
  let t0 = K.Clock.now_s () in
  let declared_workloads =
    List.filter_map (fun m -> Json.to_str (Json.member "name" m))
      (Json.to_list (Json.member "workloads" bench))
  in
  check (List.sort compare declared_workloads = List.sort compare W.names)
    "BENCHMARK.json workloads differ from the ledger's";
  List.iter
    (fun (w : W.t) ->
      let run ~trace =
        run_workload ~w ~scale:W.Smoke ~seed:42 ~seconds:0.0 ~warmup:false ~trace ~workdir
          ~trace_dir:None ~reference:[]
      in
      List.iter
        (fun (trace, section) ->
          let o = run ~trace in
          let printed = List.sort compare (List.map (fun (n, u, _) -> (n, u)) o.metrics) in
          check (printed = declared section) "%s: %s metrics differ from BENCHMARK.json" w.name
            section;
          check (o.failed = 0) "%s%s: %s" w.name
            (if trace then " (traced)" else "")
            (String.concat "; " o.errors);
          List.iter
            (fun (n, _, v) -> check (Float.is_finite v) "%s: %s is not a number" w.name n)
            o.metrics)
        [ (false, "end_to_end"); (true, "per_layer") ])
    W.all;
  (* The sweep renders identically whatever the pool width. *)
  let inputs = W.make_inputs ~scale:W.Smoke ~seed:42 in
  let sweep_fps jobs =
    K.Pool.with_pool ~jobs (fun pool ->
        List.map
          (fun (c : W.cell) -> c.fingerprint)
          (W.partitioned_sweep.pass ~tracer:None ~pool ~workdir inputs))
  in
  check (sweep_fps 1 = sweep_fps 2) "partitioned-sweep: jobs 1 and jobs 2 differ";
  Sys.rmdir workdir;
  List.iter (fun p -> Printf.eprintf "ledger smoke: %s\n" p) (List.rev !problems);
  Printf.printf "ledger smoke: %d workloads, %s, %.1f s\n" (List.length W.all)
    (if !problems = [] then "ok" else "FAILED")
    (K.Clock.elapsed_s ~since:t0);
  if !problems = [] then 0 else 1

let () =
  let code =
    try
      match List.tl (Array.to_list Sys.argv) with
      | "ledger" :: rest -> ledger_cmd rest
      | "compare" :: rest -> compare_cmd rest
      | "smoke" :: rest -> smoke_cmd rest
      | rest -> run_cmd rest
    with Usage msg ->
      Printf.eprintf "ledger: %s\n%s\n" msg usage;
      2
  in
  exit code
