(* Two gates measured on the host, too slow or machine-dependent for
   the test suite: kpar's cross-jobs determinism with its scaling floor,
   and ktenant's peak-RSS flatness.

     dune exec bench/main.exe -- sweep quick --gate-speedup 2.0
     dune exec bench/main.exe -- tenancy full

   "quick" or "full" (the default) picks the scale; no selector runs
   both.  The tables and studies regenerate with [ksurf_cli all]. *)

module E = Ksurf.Experiments

(* Monotonic, not [Unix.gettimeofday]: an NTP step mid-benchmark would
   otherwise corrupt the reported durations and BENCH_kpar.json. *)
let timed name f =
  let t0 = Ksurf.Clock.now_s () in
  let r = f () in
  Format.printf "@.[%s took %.1fs]@.@." name (Ksurf.Clock.elapsed_s ~since:t0);
  r

(* ------------------------------------------------------------------ *)
(* kpar throughput scan: the dose sweep at increasing worker counts.   *)

(* Runs the dose sweep once per jobs setting, measures cells/sec on the
   monotonic clock, stable-hashes the rendered output to prove every
   worker count produced the identical result, and writes the lot to
   BENCH_kpar.json.  Wall-clock speedup is capped by the host's cores
   — min(jobs, cores) is the most any schedule can deliver — so the
   gate adapts: on a host with >= 4 cores, [--gate-speedup X] enforces
   the full X floor at jobs=4; on smaller hosts it enforces the
   anti-scaling floor instead.  The floor leaves ~25% headroom for
   scheduler noise on an oversubscribed 1-core box (observed runs swing
   0.83-1.03x there) while still sitting far above the 0.31-0.49x
   signature of the GC-rendezvous bug it guards against.  The hash
   equality is the unconditional hard claim either way. *)
let anti_scaling_floor = 0.75

let run_sweep ~seed ~scale ~gate_speedup =
  let cores = Domain.recommended_domain_count () in
  let corpus = Lazy.from_val (E.default_corpus ~seed scale) in
  let job_counts = [ 1; 2; 4; 8 ] in
  (* Best of two timed runs per job count.  Host interference (another
     process stealing the core mid-run) only ever slows a run down, so
     min-time is the low-noise estimator — a single-run sweep on a busy
     box swings ±20% and flakes the gate.  Both runs must hash
     identically; the determinism check below then compares across job
     counts as before. *)
  let reps = 2 in
  let rows =
    List.map
      (fun jobs ->
        Ksurf.Pool.with_pool ~jobs (fun pool ->
            let timed_run () =
              let t0 = Ksurf.Clock.now_s () in
              let t = E.Dose.run (E.context ~seed ~corpus ~pool scale) in
              let seconds = Ksurf.Clock.elapsed_s ~since:t0 in
              let cells = List.length t.E.Dose.cells in
              let hash =
                Ksurf.Stable_hash.string (Format.asprintf "%a" E.Dose.pp t)
              in
              (jobs, cells, seconds, hash)
            in
            let runs = List.init reps (fun _ -> timed_run ()) in
            let (_, _, _, h0) = List.hd runs in
            List.iter
              (fun (_, _, _, h) ->
                if h <> h0 then begin
                  Format.printf
                    "  jobs=%d: repeat run DIVERGED from its first run@." jobs;
                  exit 1
                end)
              runs;
            List.fold_left
              (fun ((_, _, best_s, _) as best) ((_, _, s, _) as r) ->
                if s < best_s then r else best)
              (List.hd runs) (List.tl runs)))
      job_counts
  in
  let hash0 = match rows with (_, _, _, h) :: _ -> h | [] -> 0 in
  let deterministic = List.for_all (fun (_, _, _, h) -> h = hash0) rows in
  let base_rate =
    match rows with
    | (_, cells, seconds, _) :: _ when seconds > 0.0 ->
        float_of_int cells /. seconds
    | _ -> 0.0
  in
  Format.printf "kpar sweep throughput (dose sweep, seed=%d):@." seed;
  List.iter
    (fun (jobs, cells, seconds, hash) ->
      let rate = if seconds > 0.0 then float_of_int cells /. seconds else 0.0 in
      Format.printf
        "  jobs=%d  %d cells in %.2fs  (%.2f cells/s, %.2fx, hash %08x)@."
        jobs cells seconds rate
        (if base_rate > 0.0 then rate /. base_rate else 0.0)
        hash)
    rows;
  Format.printf "  outputs across job counts: %s@."
    (if deterministic then "bit-identical" else "DIVERGENT");
  Format.printf
    "  host cores: %d (wall-clock speedup at jobs=N is capped at min(N, %d))@."
    cores cores;
  (* Per-jobs speedup ratios, pulled out as named top-level JSON fields
     so dashboards and the gate below read them without re-deriving
     anything from the row list. *)
  let speedup_of jobs =
    List.find_map
      (fun (j, cells, seconds, _) ->
        if j = jobs && seconds > 0.0 && base_rate > 0.0 then
          Some (float_of_int cells /. seconds /. base_rate)
        else None)
      rows
    |> Option.value ~default:0.0
  in
  let json =
    let row_json (jobs, cells, seconds, hash) =
      let rate = if seconds > 0.0 then float_of_int cells /. seconds else 0.0 in
      Printf.sprintf
        "    { \"jobs\": %d, \"cells\": %d, \"seconds\": %.6f, \
         \"cells_per_sec\": %.3f, \"speedup\": %.3f, \"output_hash\": \
         \"%08x\" }"
        jobs cells seconds rate
        (if base_rate > 0.0 then rate /. base_rate else 0.0)
        hash
    in
    Printf.sprintf
      "{\n\
      \  \"benchmark\": \"kpar-dose-sweep\",\n\
      \  \"seed\": %d,\n\
      \  \"scale\": %S,\n\
      \  \"host_cores\": %d,\n\
      \  \"speedup_attainable_jobs4\": %.1f,\n\
      \  \"deterministic_across_jobs\": %b,\n\
      \  \"speedup_jobs2\": %.3f,\n\
      \  \"speedup_jobs4\": %.3f,\n\
      \  \"speedup_jobs8\": %.3f,\n\
      \  \"rows\": [\n%s\n  ]\n\
       }\n"
      seed
      (match scale with E.Quick -> "quick" | E.Full -> "full")
      cores
      (float_of_int (min 4 cores))
      deterministic (speedup_of 2) (speedup_of 4) (speedup_of 8)
      (String.concat ",\n" (List.map row_json rows))
  in
  Ksurf.Fileio.write_atomic ~path:"BENCH_kpar.json" (fun oc ->
      output_string oc json);
  Format.printf "  wrote BENCH_kpar.json@.";
  if not deterministic then exit 1;
  (* Scaling gate: require the jobs=4 speedup to clear a floor.  The
     requested floor applies verbatim where the hardware can deliver it
     (>= 4 cores); hosts with fewer cores are still gated — on the
     anti-scaling floor, because a correct pool may cost a little
     coordination but must never serialise the way the GC-rendezvous
     bug did (0.31–0.49x before the fix). *)
  match gate_speedup with
  | None -> ()
  | Some floor ->
      let s4 = speedup_of 4 in
      let applied, why =
        if cores >= 4 then (floor, Printf.sprintf "wall-clock floor %.2fx" floor)
        else
          ( anti_scaling_floor,
            Printf.sprintf
              "anti-scaling floor %.2fx (host has %d core%s: %.2fx is \
               unattainable wall-clock; the full floor applies on >= 4 cores)"
              anti_scaling_floor cores
              (if cores = 1 then "" else "s")
              floor )
      in
      if s4 < applied then begin
        Format.printf "  speedup gate FAILED: jobs=4 %.2fx < %s@." s4 why;
        exit 1
      end
      else Format.printf "  speedup gate passed: jobs=4 %.2fx >= %s@." s4 why

(* ------------------------------------------------------------------ *)
(* ktenant memory-flatness bench: the same churny fleet at 10^5 and    *)
(* 10^6 requests.  Every latency accumulator is a Streamstat, so peak  *)
(* RSS must stay flat while the request count grows 10x — that ratio   *)
(* is the hard claim, the wall-clock numbers are machine-dependent     *)
(* context.                                                            *)

(* Peak resident set (kB) from /proc/self/status; 0 where the kernel
   doesn't provide it (non-Linux).  VmHWM is a process-lifetime
   high-water mark, so running the small target first means any growth
   measured after the big target is growth the big target caused. *)
let vm_hwm_kb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line ->
              if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                Scanf.sscanf (String.sub line 6 (String.length line - 6))
                  " %d" Fun.id
              else scan ()
          | exception End_of_file -> 0
        in
        scan ())
  with Sys_error _ -> 0

let run_tenancy ~seed ~scale =
  let module F = Ksurf.Fleet in
  let module P = Ksurf.Tenant_policy in
  let targets =
    match scale with
    | E.Quick -> [ 10_000; 100_000 ]
    | E.Full -> [ 100_000; 1_000_000 ]
  in
  let config target =
    {
      F.default_config with
      F.tenants = 64;
      churn_per_day = 8.0;
      policy = P.Static P.Docker;
      seed;
      (* t_end far beyond the request target: the run always stops on
         the target, and the 1% warmup fraction keeps the staggered
         boot storm short. *)
      days = 4000.0;
      warmup_fraction = 0.001;
      request_target = Some target;
    }
  in
  let rows =
    List.map
      (fun target ->
        Gc.compact ();
        let t0 = Ksurf.Clock.now_s () in
        let r = F.run (config target) in
        let seconds = Ksurf.Clock.elapsed_s ~since:t0 in
        let hwm = vm_hwm_kb () in
        let heap_mb =
          float_of_int (Gc.quick_stat ()).Gc.top_heap_words
          *. float_of_int (Sys.word_size / 8)
          /. 1048576.0
        in
        Format.printf
          "  %7d requests: %6.2fs wall (%.0f req/s), p99 %.1f us, %d cgroup \
           storms, peak RSS %d kB, top heap %.1f MB@."
          r.F.completed seconds
          (if seconds > 0.0 then float_of_int r.F.completed /. seconds else 0.0)
          (r.F.p99 /. 1e3)
          (r.F.cgroup_creates + r.F.cgroup_destroys)
          hwm heap_mb;
        (target, r, seconds, hwm, heap_mb))
      targets
  in
  let hwm_of i = match List.nth rows i with _, _, _, h, _ -> h in
  let rss_ratio =
    if hwm_of 0 > 0 then float_of_int (hwm_of 1) /. float_of_int (hwm_of 0)
    else 0.0
  in
  Format.printf "  peak-RSS ratio (10x the requests): %.3fx — %s@." rss_ratio
    (if rss_ratio > 0.0 && rss_ratio <= 2.0 then "flat"
     else if rss_ratio = 0.0 then "unavailable"
     else "NOT FLAT");
  let json =
    let row_json (target, (r : F.result), seconds, hwm, heap_mb) =
      Printf.sprintf
        "    { \"request_target\": %d, \"completed\": %d, \"seconds\": %.6f, \
         \"requests_per_sec\": %.1f, \"p99_ns\": %.0f, \"cgroup_storms\": %d, \
         \"peak_rss_kb\": %d, \"top_heap_mb\": %.2f }"
        target r.F.completed seconds
        (if seconds > 0.0 then float_of_int r.F.completed /. seconds else 0.0)
        r.F.p99
        (r.F.cgroup_creates + r.F.cgroup_destroys)
        hwm heap_mb
    in
    Printf.sprintf
      "{\n\
      \  \"benchmark\": \"ktenant-memory-flatness\",\n\
      \  \"seed\": %d,\n\
      \  \"scale\": %S,\n\
      \  \"tenants\": 64,\n\
      \  \"churn_per_day\": 8.0,\n\
      \  \"policy\": \"docker\",\n\
      \  \"peak_rss_ratio\": %.3f,\n\
      \  \"rss_flat\": %b,\n\
      \  \"rows\": [\n%s\n  ]\n\
       }\n"
      seed
      (match scale with E.Quick -> "quick" | E.Full -> "full")
      rss_ratio
      (rss_ratio > 0.0 && rss_ratio <= 2.0)
      (String.concat ",\n" (List.map row_json rows))
  in
  Ksurf.Fileio.write_atomic ~path:"BENCH_tenancy.json" (fun oc ->
      output_string oc json);
  Format.printf "  wrote BENCH_tenancy.json@.";
  (* The Streamstat claim is unconditional, so gate on it: a 10x
     request count must not double the peak RSS.  (0 = /proc absent;
     don't fail platforms that can't measure.) *)
  if rss_ratio > 2.0 then exit 1

(* ------------------------------------------------------------------ *)

(* Anything but a selector, a scale or --gate-speedup — a typo, a
   malformed number — prints one usage line on stderr and exits 2. *)
let die fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf
        "bench: %s (usage: main.exe [sweep|tenancy...] [quick|full] \
         [--gate-speedup X])\n"
        m;
      exit 2)
    fmt

let () =
  let gate_speedup = ref None and quick = ref false and selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--gate-speedup" :: x :: rest ->
        (match float_of_string_opt x with
        | Some v -> gate_speedup := Some v
        | None -> die "--gate-speedup expects a number, got %S" x);
        parse rest
    | ("quick" | "full") as s :: rest ->
        if s = "quick" then quick := true;
        parse rest
    | ("sweep" | "tenancy") as a :: rest ->
        selected := a :: !selected;
        parse rest
    | a :: _ -> die "unknown argument %S" a
  in
  parse (List.tl (Array.to_list Sys.argv));
  let scale = if !quick then E.Quick else E.Full in
  let wants name = !selected = [] || List.mem name !selected in
  let seed = 42 in
  if wants "sweep" then
    timed "sweep" (fun () -> run_sweep ~seed ~scale ~gate_speedup:!gate_speedup);
  if wants "tenancy" then timed "tenancy" (fun () -> run_tenancy ~seed ~scale)
