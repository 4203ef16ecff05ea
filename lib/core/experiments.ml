module Engine = Ksurf_sim.Engine
module Env = Ksurf_env.Env
module Partition = Ksurf_env.Partition
module Harness = Ksurf_varbench.Harness
module Study = Ksurf_varbench.Study
module Buckets = Ksurf_stats.Buckets
module Violin = Ksurf_stats.Violin
module Category = Ksurf_kernel.Category
module Corpus = Ksurf_syzgen.Corpus
module Generator = Ksurf_syzgen.Generator
module Apps = Ksurf_tailbench.Apps
module Runner = Ksurf_tailbench.Runner
module Cluster = Ksurf_cluster.Cluster
module Report = Ksurf_report.Report

type scale = Quick | Full

let scale_of_string = function
  | "quick" -> Some Quick
  | "full" -> Some Full
  | _ -> None

let generator_params ~seed = function
  | Quick ->
      { Generator.default_params with Generator.seed; target_programs = 24 }
  | Full -> { Generator.default_params with Generator.seed }

let default_corpus ?(seed = 42) scale =
  (Generator.run ~params:(generator_params ~seed scale) ()).Generator.corpus

let harness_params = function
  | Quick -> { Harness.iterations = 8; warmup_iterations = 1 }
  | Full -> { Harness.iterations = 50; warmup_iterations = 2 }

let kvm_kind = Env.Kvm Ksurf_virt.Virt_config.default

module Pool = Ksurf_par.Pool

(* Resumable sweeps: a cell whose key is already journalled is skipped
   (omitted from the result); a freshly computed cell is journalled the
   moment it completes.  The journal batches persists internally, so a
   crash mid-sweep loses at most a handful of cells — recomputed on
   resume. *)
let journal_done journal key =
  match journal with
  | Some j -> Ksurf_recov.Journal.mem j key
  | None -> false

let journal_record journal key =
  match journal with
  | Some j -> Ksurf_recov.Journal.record j key
  | None -> ()

let journal_flush journal =
  match journal with
  | Some j -> Ksurf_recov.Journal.flush j
  | None -> ()

(* The shared sweep skeleton every study runs on: a list of
   self-contained cells, one function from cell to result, and an
   ordered merge.  With [pool], cells fan out across domains;
   [Pool.map] hands results back in canonical input order, so every
   downstream rendering (tables, CSV exports, stable hashes) is
   bit-identical to the sequential run — cells never share mutable
   state (each builds its own engine and PRNG stream from the seed).

   Journalling composes: already-journalled cells are filtered out
   before the fan-out, each remaining cell is recorded the moment it
   completes (the journal is the mutex-guarded single writer, so
   parallel completions serialise there), and the journal is flushed
   when the sweep ends. *)
module Sweep = struct
  let map ?pool f cells =
    match pool with
    | Some pool -> Pool.map ~pool f cells
    | None -> List.map f cells

  let run ?pool ?journal ~key f cells =
    let todo = List.filter (fun c -> not (journal_done journal (key c))) cells in
    let results =
      Fun.protect
        ~finally:(fun () -> journal_flush journal)
        (fun () ->
          map ?pool
            (fun c ->
              let r = f c in
              journal_record journal (key c);
              r)
            todo)
    in
    results
end

let run_varbench ?kernel_config ~seed ~scale ~corpus kind partition =
  let engine = Engine.create ~seed () in
  let env = Env.deploy ~engine ?kernel_config kind partition in
  Harness.run ~env ~corpus ~params:(harness_params scale) ()

(* ------------------------------------------------------------------ *)

module Table1 = struct
  type t = (int * Partition.t) list

  let run () = List.map (fun n -> (n, Partition.table1 n)) Partition.table1_rows

  let pp ppf t =
    let rows =
      List.map
        (fun (n, p) ->
          match p.Partition.units with
          | u :: _ ->
              [
                string_of_int n;
                string_of_int u.Partition.cores;
                Printf.sprintf "%.1f" (float_of_int u.Partition.mem_mb /. 1024.0);
              ]
          | [] -> [ string_of_int n; "-"; "-" ])
        t
    in
    Report.table ~header:[ "# VMs"; "Cores/VM"; "GB RAM/VM" ] ~rows ppf
end

module Table2 = struct
  type row = {
    env : string;
    median : Buckets.row;
    p99 : Buckets.row;
    max : Buckets.row;
  }

  type t = { rows : row list; corpus_calls : int; invocations_per_env : int }

  let envs = [ ("native", Env.Native, 1); ("kvm-64", kvm_kind, 64); ("docker-64", Env.Docker, 64) ]

  let run ?(seed = 42) ?(scale = Full) ?corpus ?pool () =
    let corpus =
      match corpus with Some c -> c | None -> default_corpus ~seed scale
    in
    let cells =
      Sweep.map ?pool
        (fun (name, kind, units) ->
          let result =
            run_varbench ~seed ~scale ~corpus kind (Partition.table1 units)
          in
          let stats = Study.site_stats result in
          ( {
              env = name;
              median = Study.bucket_row Study.Median stats;
              p99 = Study.bucket_row Study.P99 stats;
              max = Study.bucket_row Study.Max stats;
            },
            Harness.total_invocations result ))
        envs
    in
    let invocations_per_env =
      match List.rev cells with (_, n) :: _ -> n | [] -> 0
    in
    {
      rows = List.map fst cells;
      corpus_calls = Corpus.total_calls corpus;
      invocations_per_env;
    }

  let pp ppf t =
    Format.fprintf ppf
      "Table 2: cumulative %% of system calls with statistic below each \
       latency (corpus: %d call sites, %d invocations/environment)@.@."
      t.corpus_calls t.invocations_per_env;
    let cell row = Format.asprintf "%a" Buckets.pp row in
    let rows =
      List.concat_map
        (fun r ->
          [
            [ r.env; "median"; cell r.median ];
            [ ""; "p99"; cell r.p99 ];
            [ ""; "max"; cell r.max ];
          ])
        t.rows
    in
    Report.table ~header:[ "environment"; "stat"; Buckets.header ] ~rows ppf
end

module Fig2 = struct
  type cell = { vms : int; category : Category.t; violin : Violin.t option }

  type t = { cells : cell list; filtered_sites : int; total_sites : int }

  let vm_counts = Partition.table1_rows

  let run ?(seed = 42) ?(scale = Full) ?corpus ?kernel_config ?pool () =
    let corpus =
      match corpus with Some c -> c | None -> default_corpus ~seed scale
    in
    let stats_of kind units =
      Study.site_stats
        (run_varbench ?kernel_config ~seed ~scale ~corpus kind
           (Partition.table1 units))
    in
    (* The paper filters to call sites whose native median is >= 10 us. *)
    let native = stats_of Env.Native 1 in
    let cells =
      List.concat
        (Sweep.map ?pool
           (fun vms ->
             let stats = stats_of kvm_kind vms in
             let filtered =
               Study.filter_by_native_median ~native ~min_median:10_000.0 stats
             in
             List.map
               (fun category ->
                 {
                   vms;
                   category;
                   violin =
                     Study.category_violin ~label:(Printf.sprintf "%dvm" vms)
                       category filtered;
                 })
               Category.all)
           vm_counts)
    in
    let filtered_sites =
      Array.length
        (Study.filter_by_native_median ~native ~min_median:10_000.0 native)
    in
    { cells; filtered_sites; total_sites = Array.length native }

  let pp ppf t =
    Format.fprintf ppf
      "Figure 2: per-category 99th-percentile distributions across VM \
       counts (%d of %d call sites pass the 10us native-median filter)@.@."
      t.filtered_sites t.total_sites;
    List.iter
      (fun category ->
        let violins =
          List.filter_map
            (fun c ->
              if Category.equal c.category category then
                Option.map (fun v -> (c.vms, v)) c.violin
              else None)
            t.cells
        in
        if violins <> [] then begin
          Format.fprintf ppf "(%c) %s@."
            (Char.chr (Char.code 'a' + Category.index category))
            (Category.to_string category);
          Format.fprintf ppf "  %s@." Violin.header;
          List.iter
            (fun (_, v) -> Format.fprintf ppf "  %a@." Violin.pp_row v)
            violins;
          Format.fprintf ppf "%s@."
            (Violin.render_ascii (List.map snd violins))
        end)
      Category.all
end

module Table3 = struct
  type row = { containers : int; max : Buckets.row }

  type t = { rows : row list }

  let run ?(seed = 42) ?(scale = Full) ?corpus ?pool () =
    let corpus =
      match corpus with Some c -> c | None -> default_corpus ~seed scale
    in
    let rows =
      Sweep.map ?pool
        (fun containers ->
          let stats =
            Study.site_stats
              (run_varbench ~seed ~scale ~corpus Env.Docker
                 (Partition.table1 containers))
          in
          { containers; max = Study.bucket_row Study.Max stats })
        Partition.table1_rows
    in
    { rows }

  let pp ppf t =
    Format.fprintf ppf
      "Table 3: worst-case (max) breakdown across container counts@.@.";
    let rows =
      List.map
        (fun r ->
          [ string_of_int r.containers; Format.asprintf "%a" Buckets.pp r.max ])
        t.rows
    in
    Report.table ~header:[ "# ctnrs"; Buckets.header ] ~rows ppf
end

module Fig3 = struct
  type t = { cells : Runner.result list }

  let runner_config ~seed = function
    | Quick -> { Runner.default_config with Runner.requests = 800; seed }
    | Full -> { Runner.default_config with Runner.seed = seed }

  let run ?(seed = 42) ?(scale = Full) ?corpus ?(apps = Apps.all) ?pool () =
    let corpus =
      match corpus with Some c -> c | None -> default_corpus ~seed scale
    in
    let config = runner_config ~seed scale in
    let specs =
      List.concat_map
        (fun app ->
          List.concat_map
            (fun kind ->
              List.map (fun contended -> (app, kind, contended)) [ false; true ])
            [ kvm_kind; Env.Docker ])
        apps
    in
    let cells =
      Sweep.map ?pool
        (fun (app, kind, contended) ->
          Runner.run_single_node ~app ~kind ~contended ~config
            ~noise_corpus:corpus ())
        specs
    in
    { cells }

  let cell t ~app ~kind ~contended =
    List.find_opt
      (fun (r : Runner.result) ->
        r.Runner.app_name = app && r.Runner.kind = kind
        && r.Runner.contended = contended)
      t.cells

  let apps_of t =
    List.sort_uniq String.compare
      (List.map (fun (r : Runner.result) -> r.Runner.app_name) t.cells)

  let pp ppf t =
    let p99 app kind contended =
      match cell t ~app ~kind ~contended with
      | Some r -> r.Runner.p99 /. 1e6
      | None -> nan
    in
    let apps = apps_of t in
    Format.fprintf ppf "Figure 3(a): isolated p99 request latency@.";
    Report.grouped_bars ~title:"  isolated" ~unit_label:"ms"
      ~series:[ "kvm"; "docker" ]
      (List.map (fun a -> (a, [ p99 a "kvm" false; p99 a "docker" false ])) apps)
      ppf;
    Format.fprintf ppf "@.Figure 3(b): p99 with varbench competition@.";
    Report.grouped_bars ~title:"  contended" ~unit_label:"ms"
      ~series:[ "kvm"; "docker" ]
      (List.map (fun a -> (a, [ p99 a "kvm" true; p99 a "docker" true ])) apps)
      ppf;
    Format.fprintf ppf "@.Figure 3(c): p99 increase, isolated -> contended@.";
    let increase app kind =
      match (cell t ~app ~kind ~contended:false, cell t ~app ~kind ~contended:true) with
      | Some iso, Some cont -> Runner.percent_increase ~isolated:iso ~contended:cont
      | _ -> nan
    in
    Report.grouped_bars ~title:"  degradation" ~unit_label:"%"
      ~series:[ "kvm"; "docker" ]
      (List.map (fun a -> (a, [ increase a "kvm"; increase a "docker" ])) apps)
      ppf
end

module Fig4 = struct
  type t = { cells : Cluster.result list }

  let paper_apps = [ "xapian"; "masstree"; "moses"; "sphinx"; "img-dnn"; "silo" ]

  let cluster_config ~seed = function
    | Quick ->
        {
          Cluster.default_config with
          Cluster.nodes_simulated = 1;
          sim_iterations_per_node = 12;
          warmup_iterations = 1;
          requests_per_iteration = 15;
          seed;
        }
    | Full -> { Cluster.default_config with Cluster.seed = seed }

  let run ?(seed = 42) ?(scale = Full) ?corpus ?apps ?pool () =
    let corpus =
      match corpus with Some c -> c | None -> default_corpus ~seed scale
    in
    let apps =
      match apps with
      | Some l -> l
      | None -> List.filter_map Apps.by_name paper_apps
    in
    let config = cluster_config ~seed scale in
    let specs =
      List.concat_map
        (fun app ->
          List.concat_map
            (fun kind ->
              List.map (fun contended -> (app, kind, contended)) [ false; true ])
            [ kvm_kind; Env.Docker ])
        apps
    in
    let cells =
      Sweep.map ?pool
        (fun (app, kind, contended) ->
          Cluster.run ~app ~kind ~contended ~config ~noise_corpus:corpus ())
        specs
    in
    { cells }

  let cell t ~app ~kind ~contended =
    List.find_opt
      (fun (r : Cluster.result) ->
        r.Cluster.app_name = app && r.Cluster.kind = kind
        && r.Cluster.contended = contended)
      t.cells

  let apps_of t =
    List.sort_uniq String.compare
      (List.map (fun (r : Cluster.result) -> r.Cluster.app_name) t.cells)

  let pp ppf t =
    let runtime app kind contended =
      match cell t ~app ~kind ~contended with
      | Some r -> r.Cluster.runtime_ns /. 1e9
      | None -> nan
    in
    let apps = apps_of t in
    Format.fprintf ppf "Figure 4(a): isolated 64-node runtimes@.";
    Report.grouped_bars ~title:"  isolated" ~unit_label:"s"
      ~series:[ "kvm"; "docker" ]
      (List.map
         (fun a -> (a, [ runtime a "kvm" false; runtime a "docker" false ]))
         apps)
      ppf;
    Format.fprintf ppf "@.Figure 4(b): multi-tenant 64-node runtimes@.";
    Report.grouped_bars ~title:"  contended" ~unit_label:"s"
      ~series:[ "kvm"; "docker" ]
      (List.map
         (fun a -> (a, [ runtime a "kvm" true; runtime a "docker" true ]))
         apps)
      ppf;
    Format.fprintf ppf "@.Figure 4(c): relative loss, isolated -> multi-tenant@.";
    let loss app kind =
      match (cell t ~app ~kind ~contended:false, cell t ~app ~kind ~contended:true) with
      | Some iso, Some cont -> Cluster.relative_loss ~isolated:iso ~contended:cont
      | _ -> nan
    in
    Report.grouped_bars ~title:"  loss" ~unit_label:"%"
      ~series:[ "kvm"; "docker" ]
      (List.map (fun a -> (a, [ loss a "kvm"; loss a "docker" ])) apps)
      ppf
end

module Ablate = struct
  type row = { variant : string; p99 : Buckets.row; max : Buckets.row }

  type t = { rows : row list }

  let variants =
    let module C = Ksurf_kernel.Config in
    [
      ("default", C.default);
      ("no-background", C.without_background C.default);
      ("no-tlb-shootdown", C.without_tlb_shootdown C.default);
      ("no-timer-noise", C.without_timer_noise C.default);
      ("all-off", C.quiet);
    ]

  let run ?(seed = 42) ?(scale = Full) ?corpus ?pool () =
    let corpus =
      match corpus with Some c -> c | None -> default_corpus ~seed scale
    in
    let rows =
      Sweep.map ?pool
        (fun (variant, kernel_config) ->
          let stats =
            Study.site_stats
              (run_varbench ~kernel_config ~seed ~scale ~corpus Env.Native
                 (Partition.table1 1))
          in
          {
            variant;
            p99 = Study.bucket_row Study.P99 stats;
            max = Study.bucket_row Study.Max stats;
          })
        variants
    in
    { rows }

  let pp ppf t =
    Format.fprintf ppf
      "E7 ablation: native 64-rank varbench with mechanisms disabled@.@.";
    let rows =
      List.concat_map
        (fun r ->
          [
            [ r.variant; "p99"; Format.asprintf "%a" Buckets.pp r.p99 ];
            [ ""; "max"; Format.asprintf "%a" Buckets.pp r.max ];
          ])
        t.rows
    in
    Report.table ~header:[ "variant"; "stat"; Buckets.header ] ~rows ppf
end

module Lwvm = struct
  type row = {
    env : string;
    median : Buckets.row;
    p99 : Buckets.row;
    max : Buckets.row;
  }

  type t = { rows : row list }

  let environments =
    [ ("native", Env.Native, 1); ("docker-64", Env.Docker, 64) ]
    @ List.map
        (fun (name, virt) -> (name ^ "-64", Env.Kvm virt, 64))
        Ksurf_virt.Lightweight.all

  let run ?(seed = 42) ?(scale = Full) ?corpus ?pool () =
    let corpus =
      match corpus with Some c -> c | None -> default_corpus ~seed scale
    in
    let rows =
      Sweep.map ?pool
        (fun (env, kind, units) ->
          let stats =
            Study.site_stats
              (run_varbench ~seed ~scale ~corpus kind (Partition.table1 units))
          in
          {
            env;
            median = Study.bucket_row Study.Median stats;
            p99 = Study.bucket_row Study.P99 stats;
            max = Study.bucket_row Study.Max stats;
          })
        environments
    in
    { rows }

  let pp ppf t =
    Format.fprintf ppf
      "E9 extension: Table-2 breakdown across lightweight-VM technologies@.@.";
    let cell row = Format.asprintf "%a" Buckets.pp row in
    let rows =
      List.concat_map
        (fun r ->
          [
            [ r.env; "median"; cell r.median ];
            [ ""; "p99"; cell r.p99 ];
            [ ""; "max"; cell r.max ];
          ])
        t.rows
    in
    Report.table ~header:[ "environment"; "stat"; Buckets.header ] ~rows ppf
end

module Locks = struct
  module Instance = Ksurf_kernel.Instance

  type row = {
    env : string;
    lock : string;
    acquisitions : int;
    contended_pct : float;
    mean_wait_ns : float;
    max_wait_ns : float;
  }

  type t = { rows : row list }

  let environments =
    [ ("native", Env.Native, 1); ("kvm-8", kvm_kind, 8); ("kvm-64", kvm_kind, 64) ]

  let run ?(seed = 42) ?(scale = Full) ?corpus ?pool () =
    let corpus =
      match corpus with Some c -> c | None -> default_corpus ~seed scale
    in
    let rows =
      List.concat
        (Sweep.map ?pool (fun (env, kind, units) ->
          let engine = Engine.create ~seed () in
          let deployed = Env.deploy ~engine kind (Partition.table1 units) in
          ignore (Harness.run ~env:deployed ~corpus ~params:(harness_params scale) ());
          (* Aggregate each lock over every kernel instance of the
             deployment (one for native, one per guest for KVM). *)
          let merged = Hashtbl.create 16 in
          List.iter
            (fun instance ->
              List.iter
                (fun (r : Instance.lock_report) ->
                  let acc =
                    match Hashtbl.find_opt merged r.Instance.lock_name with
                    | Some acc -> acc
                    | None ->
                        let acc = ref (0, 0, 0.0, 0.0) in
                        Hashtbl.add merged r.Instance.lock_name acc;
                        acc
                  in
                  let a, c, wait_total, wmax = !acc in
                  acc :=
                    ( a + r.Instance.acquisitions,
                      c + r.Instance.contended,
                      wait_total
                      +. (r.Instance.mean_wait_ns
                         *. float_of_int r.Instance.acquisitions),
                      Float.max wmax r.Instance.max_wait_ns ))
                (Instance.lock_contention_report instance))
            (Env.instances deployed);
          Hashtbl.fold
            (fun lock acc rows ->
              let a, c, wait_total, wmax = !acc in
              if a = 0 then rows
              else
                {
                  env;
                  lock;
                  acquisitions = a;
                  contended_pct = 100.0 *. float_of_int c /. float_of_int a;
                  mean_wait_ns = wait_total /. float_of_int a;
                  max_wait_ns = wmax;
                }
                :: rows)
            merged []
          |> List.sort (fun x y -> Float.compare y.contended_pct x.contended_pct))
           environments)
    in
    { rows }

  let pp ppf t =
    Format.fprintf ppf
      "E10 diagnostic: per-lock contention under the corpus (>= 0.1%% contended)@.@.";
    let rows =
      List.filter (fun r -> r.contended_pct >= 0.1) t.rows
      |> List.map (fun r ->
             [
               r.env;
               r.lock;
               string_of_int r.acquisitions;
               Printf.sprintf "%.1f%%" r.contended_pct;
               Report.duration_ns r.mean_wait_ns;
               Report.duration_ns r.max_wait_ns;
             ])
    in
    Report.table
      ~header:[ "environment"; "lock"; "acq"; "contended"; "mean wait"; "max wait" ]
      ~rows ppf
end

module Ablate_virt = struct
  type row = {
    app : string;
    exit_scale : float;
    kvm_runtime_ns : float;
    docker_runtime_ns : float;
  }

  type t = { rows : row list }

  let scales = [ 1.0; 0.5; 0.25; 0.0 ]

  let run ?(seed = 42) ?(scale = Quick) ?corpus ?apps ?pool () =
    let corpus =
      match corpus with Some c -> c | None -> default_corpus ~seed scale
    in
    let apps =
      match apps with
      | Some l -> l
      | None -> List.filter_map Apps.by_name [ "silo"; "sphinx" ]
    in
    let config = Fig4.cluster_config ~seed scale in
    (* Two sweeps: one unscaled docker reference per app, then the
       (app x exit-scale) KVM grid — splitting them keeps every cell
       independent so both can fan out. *)
    let dockers =
      Sweep.map ?pool
        (fun app ->
          Cluster.run ~app ~kind:Env.Docker ~contended:true ~config
            ~noise_corpus:corpus ())
        apps
    in
    let docker_of = List.combine apps dockers in
    let specs =
      List.concat_map (fun app -> List.map (fun s -> (app, s)) scales) apps
    in
    let kvms =
      Sweep.map ?pool
        (fun (app, exit_scale) ->
          let virt =
            Ksurf_virt.Virt_config.scale exit_scale
              Ksurf_virt.Virt_config.default
          in
          Cluster.run ~app ~kind:(Env.Kvm virt) ~contended:true ~config
            ~noise_corpus:corpus ())
        specs
    in
    let rows =
      List.map2
        (fun (app, exit_scale) (kvm : Cluster.result) ->
          let docker = List.assq app docker_of in
          {
            app = app.Apps.name;
            exit_scale;
            kvm_runtime_ns = kvm.Cluster.runtime_ns;
            docker_runtime_ns = docker.Cluster.runtime_ns;
          })
        specs kvms
    in
    { rows }

  let pp ppf t =
    Format.fprintf ppf
      "E8 ablation: contended 64-node KVM runtime as exit costs shrink@.@.";
    let rows =
      List.map
        (fun r ->
          [
            r.app;
            Printf.sprintf "%.2f" r.exit_scale;
            Printf.sprintf "%.3f" (r.kvm_runtime_ns /. 1e9);
            Printf.sprintf "%.3f" (r.docker_runtime_ns /. 1e9);
            Printf.sprintf "%+.1f%%"
              (100.0
              *. (r.docker_runtime_ns -. r.kvm_runtime_ns)
              /. r.docker_runtime_ns);
          ])
        t.rows
    in
    Report.table
      ~header:[ "app"; "exit scale"; "kvm (s)"; "docker (s)"; "kvm advantage" ]
      ~rows ppf
end

module Dose = struct
  module Plan = Ksurf_fault.Plan
  module Kfault = Ksurf_fault.Kfault
  module Quantile = Ksurf_stats.Quantile
  module Streamstat = Ksurf_stats.Streamstat

  type cell = {
    env : string;
    intensity : float;
    p99 : float;
    cov : float;
    injections : int;
    retries : int;
    degraded : bool;
    survivors : int;
  }

  type t = { plan_name : string; cells : cell list }

  let environments =
    [
      ("native", Env.Native, 1);
      ("kvm-64", kvm_kind, 64);
      ("docker-64", Env.Docker, 64);
    ]

  let default_intensities = [ 0.0; 0.5; 1.0; 2.0 ]

  let default_plan () =
    match Plan.preset "mixed" with Some p -> p | None -> assert false

  let cell_key (env_name, _, _, intensity) =
    Printf.sprintf "dose:%s:%.2f" env_name intensity

  let run ?(seed = 42) ?(scale = Full) ?corpus ?plan
      ?(intensities = default_intensities) ?journal ?pool () =
    let corpus =
      match corpus with Some c -> c | None -> default_corpus ~seed scale
    in
    let plan = match plan with Some p -> p | None -> default_plan () in
    let specs =
      List.concat_map
        (fun (env_name, kind, units) ->
          List.map (fun i -> (env_name, kind, units, i)) intensities)
        environments
    in
    let cells =
      Sweep.run ?pool ?journal ~key:cell_key
        (fun (env_name, kind, units, intensity) ->
          let engine = Engine.create ~seed () in
          let env = Env.deploy ~engine kind (Partition.table1 units) in
          let kf = Kfault.arm ~env ~plan:(Plan.scale intensity plan) ~seed () in
          let result =
            Harness.run ~env ~corpus ~params:(harness_params scale) ()
          in
          Kfault.disarm kf;
          (* Exact at seed scale (byte-identical to the historical
             concatenated-array computation); streaming estimates from
             [result.overall] once any site spills its exact buffer. *)
          let p99, cov =
            match Study.pooled_samples result with
            | Some samples ->
                let n = Array.length samples in
                let mean =
                  if n = 0 then 0.0
                  else Array.fold_left ( +. ) 0.0 samples /. float_of_int n
                in
                let var =
                  if n = 0 then 0.0
                  else
                    Array.fold_left
                      (fun acc x ->
                        acc +. (((x -. mean) *. (x -. mean)) /. float_of_int n))
                      0.0 samples
                in
                ( (if n = 0 then 0.0 else Quantile.p99 samples),
                  if mean > 0.0 then sqrt var /. mean else 0.0 )
            | None ->
                let o = result.Harness.overall in
                let n = Streamstat.count o in
                let mean = Streamstat.mean o in
                let var =
                  if n < 2 then 0.0
                  else
                    Streamstat.variance o
                    *. (float_of_int (n - 1) /. float_of_int n)
                in
                ( Streamstat.p99 o,
                  if mean > 0.0 then sqrt var /. mean else 0.0 )
          in
          {
            env = env_name;
            intensity;
            p99;
            cov;
            injections = Kfault.total_injections kf;
            retries = result.Harness.transient_retries;
            degraded = result.Harness.degraded;
            survivors = result.Harness.survivors;
          })
        specs
    in
    { plan_name = plan.Plan.name; cells }

  let cell t ~env ~intensity =
    List.find_opt
      (fun c -> c.env = env && c.intensity = intensity)
      t.cells

  (* p99 at each dose relative to the same environment's zero-dose
     baseline: the sensitivity curve the study plots. *)
  let degradation t ~env =
    let mine = List.filter (fun c -> c.env = env) t.cells in
    match List.find_opt (fun c -> c.intensity = 0.0) mine with
    | None -> []
    | Some base when base.p99 <= 0.0 -> []
    | Some base ->
        List.map (fun c -> (c.intensity, c.p99 /. base.p99)) mine

  let pp ppf t =
    Format.fprintf ppf
      "Dose-response: varbench p99 sensitivity to injected faults (plan %s)@.@."
      t.plan_name;
    let rows =
      List.map
        (fun c ->
          let rel =
            match cell t ~env:c.env ~intensity:0.0 with
            | Some base when base.p99 > 0.0 ->
                Printf.sprintf "%.2fx" (c.p99 /. base.p99)
            | _ -> "-"
          in
          [
            c.env;
            Printf.sprintf "%.2f" c.intensity;
            Printf.sprintf "%.1f" (c.p99 /. 1e3);
            rel;
            Printf.sprintf "%.3f" c.cov;
            string_of_int c.injections;
            string_of_int c.retries;
            (if c.degraded then Printf.sprintf "yes (%d left)" c.survivors
             else "no");
          ])
        t.cells
    in
    Report.table
      ~header:
        [
          "environment"; "dose"; "p99 (us)"; "vs baseline"; "CoV";
          "injections"; "retries"; "degraded";
        ]
      ~rows ppf
end

module Specialize = struct
  module Profile = Ksurf_spec.Profile
  module Specializer = Ksurf_spec.Specializer
  module Quantile = Ksurf_stats.Quantile
  module Streamstat = Ksurf_stats.Streamstat

  type row = {
    env : string;
    p50 : float;
    p99 : float;
    tail_ratio : float;
    p99_bucket : Buckets.row;
    max_bucket : Buckets.row;
    denials : int;
    surface_area : float;
  }

  type t = {
    spec : Ksurf_spec.Spec.t;
    rows : row list;
    corpus_calls : int;
  }

  let retained = [ Category.File_io; Category.Fs_mgmt ]

  let workload ?(seed = 42) ?(scale = Full) ?corpus () =
    let full =
      match corpus with Some c -> c | None -> default_corpus ~seed scale
    in
    match Profile.restrict full ~keep:retained with
    | Some c -> c
    | None -> full

  (* Variability, the varbench way: the bucket metric summarizes the
     distribution of per-site statistics, so the headline ratio does
     too — the fleet's median per-site p99 over its median per-site
     p50.  Raw-sample p99/p50 would conflate jitter with workload
     heterogeneity: a 256 KiB write is slower than a stat at p50 *and*
     p99, and that is not variability. *)
  let site_tail_ratio (stats : Study.site_stats array) =
    let p50s = Array.map (fun (s : Study.site_stats) -> s.Study.median) stats in
    let p99s = Array.map (fun (s : Study.site_stats) -> s.Study.p99) stats in
    Quantile.median p99s /. Quantile.median p50s

  let measure ~name ~env (result : Harness.result) =
    let p50, p99 =
      match Study.pooled_samples result with
      | Some samples -> (Quantile.median samples, Quantile.p99 samples)
      | None ->
          ( Streamstat.p50 result.Harness.overall,
            Streamstat.p99 result.Harness.overall )
    in
    let stats = Study.site_stats result in
    let ranks = Env.rank_count env in
    let surface = ref 0.0 in
    let denials = ref 0 in
    for rank = 0 to ranks - 1 do
      surface := !surface +. Env.surface_area_of_rank env rank;
      denials := !denials + Specializer.denials env ~rank
    done;
    {
      env = name;
      p50;
      p99;
      tail_ratio = site_tail_ratio stats;
      p99_bucket = Study.bucket_row Study.P99 stats;
      max_bucket = Study.bucket_row Study.Max stats;
      denials = !denials;
      surface_area = !surface /. float_of_int ranks;
    }

  let run ?(seed = 42) ?(scale = Full) ?corpus ?journal ?pool () =
    let corpus = workload ~seed ~scale ?corpus () in
    let spec =
      Specializer.compile (Profile.of_corpus ~name:"varbench-fs" corpus)
    in
    let cell ?kernel_config ?(specialized = false) name kind units =
      let engine = Engine.create ~seed () in
      let env = Env.deploy ~engine ?kernel_config kind (Partition.table1 units) in
      if specialized then Specializer.install_all env spec;
      measure ~name ~env (Harness.run ~env ~corpus ~params:(harness_params scale) ())
    in
    let rows =
      Sweep.run ?pool ?journal
        ~key:(fun (name, _) -> "specialize:" ^ name)
        (fun (_, make) -> make ())
        [
          ("native-64", fun () -> cell "native-64" Env.Native 1);
          (* "Per-tenant specialized kernels": a MultiK-style multikernel
             deployment — each rank gets a private pruned kernel at native
             syscall cost, so the shared-kernel lock convoys disappear
             without paying the KVM cpu_cost_factor tax. *)
          ( "native-64-kspec",
            fun () ->
              cell "native-64-kspec" Env.Multikernel 64
                ~kernel_config:(Specializer.kernel_config spec)
                ~specialized:true );
          ("kvm-64", fun () -> cell "kvm-64" kvm_kind 64);
        ]
    in
    { spec; rows; corpus_calls = Corpus.total_calls corpus }

  let row t ~env = List.find_opt (fun r -> r.env = env) t.rows

  let pp ppf t =
    Format.fprintf ppf
      "Specialization (kspec): fs-restricted varbench (%d call sites), \
       64 ranks per environment@.@.%a@.@."
      t.corpus_calls Ksurf_spec.Spec.pp t.spec;
    let cell row = Format.asprintf "%a" Buckets.pp row in
    let rows =
      List.concat_map
        (fun r ->
          [
            [
              r.env;
              "p99";
              cell r.p99_bucket;
              Printf.sprintf "%.1f" (r.p50 /. 1e3);
              Printf.sprintf "%.1f" (r.p99 /. 1e3);
              Printf.sprintf "%.2f" r.tail_ratio;
              string_of_int r.denials;
              Printf.sprintf "%.3f" r.surface_area;
            ];
            [ ""; "max"; cell r.max_bucket; ""; ""; ""; ""; "" ];
          ])
        t.rows
    in
    Report.table
      ~header:
        [
          "environment"; "stat"; Buckets.header; "p50 (us)"; "p99 (us)";
          "site p99/p50"; "denials"; "surface";
        ]
      ~rows ppf
end

module Recover = struct
  module Supervisor = Ksurf_recov.Supervisor

  type cell = {
    policy : string;
    crash_rate : float;
    runtime_ns : float;
    straggler_factor : float;
    supersteps : int;
    survivors : int;
    degraded : bool;
    crashes : int;
    restarts : int;
    backups : int;
    deaths : int;
    transitions : int;
    checkpoints : int;
  }

  type t = {
    nodes : int;
    iterations : int;
    pool_mean_ns : float;
    cells : cell list;
  }

  let default_rates = [ 0.0; 0.005; 0.01; 0.02 ]

  let policies =
    [ Supervisor.Survivors; Supervisor.Readmit; Supervisor.Speculative ]

  let run ?(seed = 42) ?(scale = Full) ?corpus ?app ?(rates = default_rates)
      ?journal ?pool () =
    let corpus =
      match corpus with Some c -> c | None -> default_corpus ~seed scale
    in
    let app =
      match app with
      | Some a -> a
      | None -> (
          match Apps.by_name "silo" with
          | Some a -> a
          | None -> List.hd Apps.all)
    in
    let cconfig = Fig4.cluster_config ~seed scale in
    (* One set of node simulations feeds every (policy x rate) cell: the
       sweep varies only the supervision, never the empirical pool.  The
       node simulations themselves fan out across [pool]. *)
    let iter_pool =
      Cluster.pool ~app ~kind:kvm_kind ~contended:false ~config:cconfig
        ~noise_corpus:corpus ?par:pool ()
    in
    let iterations =
      match scale with Quick -> 12 | Full -> cconfig.Cluster.iterations
    in
    let barrier =
      Cluster.barrier_cost_for ~kind:kvm_kind
        ~nodes_total:cconfig.Cluster.nodes_total
    in
    let base =
      {
        Supervisor.default_config with
        Supervisor.nodes = cconfig.Cluster.nodes_total;
        iterations;
        barrier_cost_ns = barrier;
        seed;
      }
    in
    let specs =
      List.concat_map
        (fun policy -> List.map (fun rate -> (policy, rate)) rates)
        policies
    in
    let cells =
      Sweep.run ?pool ?journal
        ~key:(fun (policy, crash_rate) ->
          Printf.sprintf "recover:%s:%.4f"
            (Supervisor.policy_name policy)
            crash_rate)
        (fun (policy, crash_rate) ->
          let o =
            Supervisor.run ~pool:iter_pool
              ~config:{ base with Supervisor.policy; crash_rate }
              ()
          in
          {
            policy = o.Supervisor.policy;
            crash_rate;
            runtime_ns = o.Supervisor.runtime_ns;
            straggler_factor = o.Supervisor.straggler_factor;
            supersteps = o.Supervisor.supersteps;
            survivors = o.Supervisor.survivors;
            degraded = o.Supervisor.degraded;
            crashes = o.Supervisor.crashes;
            restarts = o.Supervisor.restarts;
            backups = o.Supervisor.backups;
            deaths = o.Supervisor.deaths;
            transitions = o.Supervisor.transitions;
            checkpoints = o.Supervisor.checkpoints;
          })
        specs
    in
    let n = Array.length iter_pool in
    let pool_mean_ns =
      if n = 0 then 0.0
      else Array.fold_left ( +. ) 0.0 iter_pool /. float_of_int n
    in
    { nodes = cconfig.Cluster.nodes_total; iterations; pool_mean_ns; cells }

  let cell t ~policy ~crash_rate =
    List.find_opt
      (fun c -> c.policy = policy && c.crash_rate = crash_rate)
      t.cells

  (* Runtime at each crash rate relative to the same policy's crash-free
     baseline: the recovery-cost curve the study plots. *)
  let overhead t ~policy =
    let mine = List.filter (fun c -> c.policy = policy) t.cells in
    match List.find_opt (fun c -> c.crash_rate = 0.0) mine with
    | None -> []
    | Some base when base.runtime_ns <= 0.0 -> []
    | Some base ->
        List.map (fun c -> (c.crash_rate, c.runtime_ns /. base.runtime_ns)) mine

  let pp ppf t =
    Format.fprintf ppf
      "Recovery study: crash rate x policy on the %d-node BSP synthesis \
       (%d supersteps, pool mean %.2f ms)@.@."
      t.nodes t.iterations (t.pool_mean_ns /. 1e6);
    let rows =
      List.map
        (fun c ->
          let rel =
            match cell t ~policy:c.policy ~crash_rate:0.0 with
            | Some base when base.runtime_ns > 0.0 ->
                Printf.sprintf "%.2fx" (c.runtime_ns /. base.runtime_ns)
            | _ -> "-"
          in
          [
            c.policy;
            Printf.sprintf "%.3f" c.crash_rate;
            Printf.sprintf "%.3f" (c.runtime_ns /. 1e9);
            rel;
            Printf.sprintf "%.2f" c.straggler_factor;
            string_of_int c.survivors;
            (if c.degraded then "yes" else "no");
            string_of_int c.crashes;
            string_of_int c.restarts;
            string_of_int c.backups;
            string_of_int c.deaths;
            string_of_int c.checkpoints;
          ])
        t.cells
    in
    Report.table
      ~header:
        [
          "policy"; "crash rate"; "runtime (s)"; "vs crash-free"; "straggler";
          "survivors"; "degraded"; "crashes"; "restarts"; "backups"; "deaths";
          "ckpts";
        ]
      ~rows ppf
end

module Tenancy = struct
  module Fleet = Ksurf_tenant.Fleet
  module Policy = Ksurf_tenant.Policy

  type cell = Fleet.result

  type t = { slo_ns : float; cells : cell list }

  let default_policies =
    [
      Policy.Static Policy.Native;
      Policy.Static Policy.Docker;
      Policy.Static Policy.Kvm;
      Policy.Static Policy.Multikernel;
      Policy.Adaptive;
    ]

  let default_tenants = function Quick -> [ 32 ] | Full -> [ 128; 512 ]
  let default_churns = function Quick -> [ 0.0; 8.0 ] | Full -> [ 0.0; 4.0; 16.0 ]

  (* The fleet shape a sweep cell gets: the scale knob only sets how
     much virtual time each cell simulates — the tenant population and
     churn come from the sweep axes. *)
  let fleet_config ~seed ~scale ~policy ~tenants ~churn =
    let base = Fleet.default_config in
    let day_ns = match scale with Quick -> 5e8 | Full -> 2e9 in
    {
      base with
      Fleet.tenants;
      churn_per_day = churn;
      policy;
      seed;
      day_ns;
    }

  let cell_key (policy, tenants, churn) =
    Printf.sprintf "tenancy:%s:%d:%.2f" (Policy.name policy) tenants churn

  let run ?(seed = 42) ?(scale = Full) ?tenants ?churns ?policies ?journal
      ?pool () =
    let tenants =
      match tenants with Some l -> l | None -> default_tenants scale
    in
    let churns = match churns with Some l -> l | None -> default_churns scale in
    let policies =
      match policies with Some l -> l | None -> default_policies
    in
    let specs =
      List.concat_map
        (fun policy ->
          List.concat_map
            (fun n -> List.map (fun churn -> (policy, n, churn)) churns)
            tenants)
        policies
    in
    let cells =
      Sweep.run ?pool ?journal ~key:cell_key
        (fun (policy, tenants, churn) ->
          Fleet.run (fleet_config ~seed ~scale ~policy ~tenants ~churn))
        specs
    in
    { slo_ns = Fleet.default_config.Fleet.slo_ns; cells }

  let cell t ~policy ~tenants ~churn =
    List.find_opt
      (fun (c : cell) ->
        c.Fleet.policy = policy
        && c.Fleet.tenants = tenants
        && c.Fleet.churn_per_day = churn)
      t.cells

  (* The headline: per policy, the largest (tenants, churn) cell that
     still attains the SLO for at least [floor] of its tenants.  Cells
     with no measured tenant carry no verdict — their attainment of 0 is
     no-data, not failure — so they can neither anchor nor be part of
     the frontier. *)
  let frontier ?(floor = 0.95) t =
    let policies =
      List.sort_uniq compare
        (List.map (fun (c : cell) -> c.Fleet.policy) t.cells)
    in
    List.map
      (fun p ->
        let mine =
          List.filter
            (fun (c : cell) ->
              c.Fleet.policy = p
              && c.Fleet.measured > 0
              && c.Fleet.attainment >= floor)
            t.cells
        in
        let best =
          List.fold_left
            (fun acc (c : cell) ->
              match acc with
              | None -> Some c
              | Some (b : cell) ->
                  if
                    c.Fleet.tenants > b.Fleet.tenants
                    || (c.Fleet.tenants = b.Fleet.tenants
                        && c.Fleet.churn_per_day > b.Fleet.churn_per_day)
                  then Some c
                  else acc)
            None mine
        in
        (p, best))
      policies

  let pp ppf t =
    Format.fprintf ppf
      "Tenancy study: fleet p99 and SLO attainment (p99 <= %.0f us per \
       tenant) by policy x tenants x churn@.@."
      (t.slo_ns /. 1e3);
    let rows =
      List.map
        (fun (c : cell) ->
          [
            c.Fleet.policy;
            string_of_int c.Fleet.tenants;
            Printf.sprintf "%.1f" c.Fleet.churn_per_day;
            string_of_int c.Fleet.completed;
            Printf.sprintf "%.1f" (c.Fleet.p50 /. 1e3);
            Printf.sprintf "%.1f" (c.Fleet.p99 /. 1e3);
            (if c.Fleet.measured = 0 then "n/a"
             else Printf.sprintf "%.3f" c.Fleet.attainment);
            string_of_int c.Fleet.epoch_violations;
            string_of_int (c.Fleet.cgroup_creates + c.Fleet.cgroup_destroys);
            string_of_int c.Fleet.migrations;
            string_of_int
              (c.Fleet.scale_ups + c.Fleet.scale_downs);
          ])
        t.cells
    in
    Report.table
      ~header:
        [
          "policy"; "tenants"; "churn/day"; "requests"; "p50 (us)"; "p99 (us)";
          "slo attain"; "viol epochs"; "cg storms"; "migr"; "scale";
        ]
      ~rows ppf;
    Format.fprintf ppf
      "@.SLO frontier (largest cell with >= 95%% of measured tenants \
       attaining):@.";
    List.iter
      (fun (p, best) ->
        match best with
        | Some (c : cell) ->
            Format.fprintf ppf
              "  %-13s  %4d tenants at churn %4.1f/day  (attainment %.3f, \
               p99 %.1f us)@."
              p c.Fleet.tenants c.Fleet.churn_per_day c.Fleet.attainment
              (c.Fleet.p99 /. 1e3)
        | None -> Format.fprintf ppf "  %-13s  no cell attains the floor@." p)
      (frontier t)
end

(* ------------------------------------------------------------------ *)

module Drift = struct
  module Driftbench = Ksurf_adapt.Driftbench

  type cell = Driftbench.result

  type t = { cells : cell list }

  let default_doses = [ 0.0; 1.0; 2.0; 3.0 ]
  let default_policies = Driftbench.all_policies

  (* The scale knob sizes the run, not the question: more epochs mean
     the adaptive policy's audit windows amortise over a longer enforced
     life, exactly as they would in a long-running deployment. *)
  let cell_config ~seed ~scale ~policy ~dose =
    let base = Driftbench.default_config in
    let epochs, programs_per_epoch, drift_at_ns =
      match scale with
      | Quick -> (36, 16, 16_000_000.0)
      | Full -> (96, 24, 24_000_000.0)
    in
    {
      base with
      Driftbench.policy;
      dose;
      epochs;
      programs_per_epoch;
      drift_at_ns;
      seed;
    }

  let cell_key (policy, dose) =
    Printf.sprintf "drift:%s:%.2f" (Driftbench.policy_name policy) dose

  let run ?(seed = 42) ?(scale = Full) ?(doses = default_doses)
      ?(policies = default_policies) ?journal ?pool () =
    let specs =
      List.concat_map
        (fun policy -> List.map (fun dose -> (policy, dose)) doses)
        policies
    in
    let cells =
      Sweep.run ?pool ?journal ~key:cell_key
        (fun (policy, dose) ->
          Driftbench.run (cell_config ~seed ~scale ~policy ~dose))
        specs
    in
    { cells }

  let cell t ~policy ~dose =
    List.find_opt
      (fun (c : cell) ->
        c.Driftbench.policy = policy && c.Driftbench.dose = dose)
      t.cells

  let pp ppf t =
    Format.fprintf ppf
      "Drift study: false-positive ENOSYS vs retained surface area vs \
       time-to-reconverge, per policy x dose@.@.";
    let rows =
      List.map
        (fun (c : cell) ->
          [
            c.Driftbench.policy;
            Printf.sprintf "%.1f" c.Driftbench.dose;
            string_of_int c.Driftbench.calls;
            Printf.sprintf "%.4f" c.Driftbench.fp_rate;
            Printf.sprintf "%.3f" c.Driftbench.reduction;
            (match c.Driftbench.reconverge_ns with
            | None -> "n/a"
            | Some ns -> Printf.sprintf "%.0f" (ns /. 1e3));
            string_of_int c.Driftbench.promotions;
            string_of_int c.Driftbench.demotions;
            string_of_int c.Driftbench.respecializations;
            string_of_int c.Driftbench.drifts;
          ])
        t.cells
    in
    Report.table
      ~header:
        [
          "policy"; "dose"; "calls"; "fp rate"; "surface red.";
          "reconverge (us)"; "promote"; "demote"; "respec"; "drifts";
        ]
      ~rows ppf;
    (* The headline comparison at each drifted dose. *)
    let doses =
      List.sort_uniq compare
        (List.filter_map
           (fun (c : cell) ->
             if c.Driftbench.dose > 0.0 then Some c.Driftbench.dose else None)
           t.cells)
    in
    List.iter
      (fun dose ->
        match
          (cell t ~policy:"static" ~dose, cell t ~policy:"adaptive" ~dose)
        with
        | Some s, Some a ->
            Format.fprintf ppf
              "@.dose %.1f: adaptive fp %.4f vs static %.4f; adaptive \
               retains %.0f%% of static's surface reduction@."
              dose a.Driftbench.fp_rate s.Driftbench.fp_rate
              (if s.Driftbench.reduction > 0.0 then
                 100.0 *. a.Driftbench.reduction /. s.Driftbench.reduction
               else 0.0)
        | _ -> ())
      doses
end

(* ------------------------------------------------------------------ *)

module Torture = struct
  module T = Ksurf_dur.Torture

  type cell = T.result

  type t = { cells : cell list }

  let default_doses = [ 0.0; 1.0; 2.0; 3.0 ]
  let default_kinds = T.all_kinds

  let default_scratch =
    Filename.concat (Filename.get_temp_dir_name ()) "ksurf-torture"

  (* The scale knob sizes the live-run budget; enumeration is exact at
     both scales (it covers every crash point of the trace either
     way). *)
  let cell_config ~seed ~scale ~scratch ~kind ~dose =
    {
      T.kind;
      dose;
      runs = (match scale with Quick -> 4 | Full -> 8);
      seed;
      scratch =
        Filename.concat scratch
          (Printf.sprintf "%s-%.2f" (T.kind_name kind) dose);
    }

  let cell_key (kind, dose) =
    Printf.sprintf "torture:%s:%.2f" (T.kind_name kind) dose

  let run ?(seed = 42) ?(scale = Full) ?(doses = default_doses)
      ?(kinds = default_kinds) ?(scratch = default_scratch) ?journal ?pool () =
    let specs =
      List.concat_map
        (fun kind -> List.map (fun dose -> (kind, dose)) doses)
        kinds
    in
    let cells =
      Sweep.run ?pool ?journal ~key:cell_key
        (fun (kind, dose) -> T.run (cell_config ~seed ~scale ~scratch ~kind ~dose))
        specs
    in
    { cells }

  let cell t ~kind ~dose =
    List.find_opt
      (fun (c : cell) -> c.T.kind = kind && c.T.dose = dose)
      t.cells

  let violations t =
    List.fold_left (fun acc c -> acc + T.violations c) 0 t.cells

  let pp ppf t =
    Format.fprintf ppf
      "Torture study: crash-state enumeration + live fault injection per \
       writer path x dose@.@.";
    let rows =
      List.map
        (fun (c : cell) ->
          [
            c.T.kind;
            Printf.sprintf "%.1f" c.T.dose;
            string_of_int c.T.crash_points;
            string_of_int c.T.crash_states;
            string_of_int c.T.enum_violations;
            string_of_int c.T.torn_refused;
            Printf.sprintf "%d/%d" c.T.live_ok c.T.live_runs;
            Printf.sprintf "%.2f" c.T.recovery_ok;
            string_of_int c.T.crashes;
            string_of_int c.T.transients;
            string_of_int c.T.enospc;
            string_of_int c.T.deferred_persists;
            string_of_int c.T.cells_lost;
            string_of_int c.T.double_runs;
            string_of_int c.T.litter;
            string_of_int c.T.litter_after;
          ])
        t.cells
    in
    Report.table
      ~header:
        [
          "path"; "dose"; "crash pts"; "states"; "viol"; "torn ref";
          "recovered"; "rate"; "crashes"; "transient"; "enospc"; "deferred";
          "lost"; "dbl-run"; "litter"; "litter after";
        ]
      ~rows ppf;
    Format.fprintf ppf
      "@.%d consistency violations across %d cells (0 = every invariant \
       held at every crash point)@."
      (violations t) (List.length t.cells)
end

type table = {
  name : string;
  doc : string;
  render :
    seed:int ->
    scale:scale ->
    corpus:Corpus.t Lazy.t ->
    pool:Pool.t ->
    Format.formatter ->
    unit;
}

let tables =
  let table name doc pp run =
    let render ~seed ~scale ~corpus ~pool ppf =
      Format.fprintf ppf "%a@." pp (run ~seed ~scale ~corpus ~pool)
    in
    { name; doc; render }
  in
  let ( !! ) = Lazy.force in
  [
    table "table1" "Print the VM configuration sweep (Table 1)" Table1.pp
      (fun ~seed:_ ~scale:_ ~corpus:_ ~pool:_ -> Table1.run ());
    table "table2" "Syscall latency breakdown (Table 2)" Table2.pp
      (fun ~seed ~scale ~corpus ~pool ->
        Table2.run ~seed ~scale ~corpus:!!corpus ~pool ());
    table "fig2" "Per-subsystem p99 vs VM count (Figure 2)" Fig2.pp
      (fun ~seed ~scale ~corpus ~pool ->
        Fig2.run ~seed ~scale ~corpus:!!corpus ~pool ());
    table "table3" "Container worst-case breakdown (Table 3)" Table3.pp
      (fun ~seed ~scale ~corpus ~pool ->
        Table3.run ~seed ~scale ~corpus:!!corpus ~pool ());
    table "fig3" "Single-node tail latency (Figure 3)" Fig3.pp
      (fun ~seed ~scale ~corpus ~pool ->
        Fig3.run ~seed ~scale ~corpus:!!corpus ~pool ());
    table "fig4" "64-node BSP runtimes (Figure 4)" Fig4.pp
      (fun ~seed ~scale ~corpus ~pool ->
        Fig4.run ~seed ~scale ~corpus:!!corpus ~pool ());
    table "ablate" "E7: variability-mechanism knockouts" Ablate.pp
      (fun ~seed ~scale ~corpus ~pool ->
        Ablate.run ~seed ~scale ~corpus:!!corpus ~pool ());
    table "ablate-virt" "E8: exit-cost sensitivity sweep" Ablate_virt.pp
      (fun ~seed ~scale ~corpus ~pool ->
        Ablate_virt.run ~seed ~scale ~corpus:!!corpus ~pool ());
    table "lwvm" "E9: lightweight-VM technology comparison" Lwvm.pp
      (fun ~seed ~scale ~corpus ~pool ->
        Lwvm.run ~seed ~scale ~corpus:!!corpus ~pool ());
    table "locks" "E10: per-lock contention attribution" Locks.pp
      (fun ~seed ~scale ~corpus ~pool ->
        Locks.run ~seed ~scale ~corpus:!!corpus ~pool ());
    table "dose" "Dose-response: fault-intensity sensitivity sweep" Dose.pp
      (fun ~seed ~scale ~corpus ~pool ->
        Dose.run ~seed ~scale ~corpus:!!corpus ~pool ());
    table "specialize"
      "kspec study: per-tenant specialized kernels (multikernel) vs shared \
       native vs kvm-64 on the same fs-restricted workload"
      Specialize.pp
      (fun ~seed ~scale ~corpus ~pool ->
        Specialize.run ~seed ~scale ~corpus:!!corpus ~pool ());
  ]
