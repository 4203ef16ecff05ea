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
module Csv = Ksurf_report.Csv
module Journal = Ksurf_recov.Journal
module Pool = Ksurf_par.Pool

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

type context = {
  seed : int;
  scale : scale;
  corpus : Corpus.t Lazy.t;
  journal : Journal.t option;
  pool : Pool.t option;
}

let context ?(seed = 42) ?corpus ?journal ?pool scale =
  let corpus =
    match corpus with Some c -> c | None -> lazy (default_corpus ~seed scale)
  in
  { seed; scale; corpus; journal; pool }

(* The shared sweep skeleton every study runs on: a list of
   self-contained cells, one function from cell to result, and an
   ordered merge.  With a pool, cells fan out across domains;
   [Pool.map] hands results back in canonical input order, so every
   downstream rendering (tables, CSV exports, stable hashes) is
   bit-identical to the sequential run — cells never share mutable
   state (each builds its own engine and PRNG stream from the seed).
   A driver forces the context's corpus before it fans out: a lazy
   value must not be forced from two domains at once.

   [run] adds resumability: a cell whose key is already journalled is
   skipped (omitted from the result), each remaining cell is recorded
   the moment it completes (the journal is the mutex-guarded single
   writer, so parallel completions serialise there), and the journal
   is flushed when the sweep ends.  The journal batches persists, so a
   crash mid-sweep loses at most a handful of cells — recomputed on
   resume. *)
module Sweep = struct
  let map ctx f cells =
    match ctx.pool with
    | Some pool -> Pool.map ~pool f cells
    | None -> List.map f cells

  let run ctx ~key f cells =
    match ctx.journal with
    | None -> map ctx f cells
    | Some j ->
        Fun.protect
          ~finally:(fun () -> Journal.flush j)
          (fun () ->
            map ctx
              (fun c ->
                let r = f c in
                Journal.record j (key c);
                r)
              (List.filter (fun c -> not (Journal.mem j (key c))) cells))
end

(* One varbench cell: a fresh engine seeded from the context, a Table 1
   deployment of [units] isolation units, and the corpus replayed at
   the context's scale. *)
let deploy ?kernel_config ctx kind units =
  let engine = Engine.create ~seed:ctx.seed () in
  Env.deploy ~engine ?kernel_config kind (Partition.table1 units)

let varbench ctx ~corpus env =
  Harness.run ~env ~corpus ~params:(harness_params ctx.scale) ()

(* --- CSV export: each driver's [csv ~dir t] writes its files into
   [dir] under stable names ([table2.csv], [fig2.csv], ...) and returns
   the paths written. *)

let bucket_header = [ "le_1us"; "le_10us"; "le_100us"; "le_1ms"; "le_10ms"; "gt_10ms" ]

let bucket_cells (r : Buckets.row) =
  List.map (Printf.sprintf "%.4f")
    [ r.Buckets.le_1us; r.Buckets.le_10us; r.Buckets.le_100us;
      r.Buckets.le_1ms; r.Buckets.le_10ms; r.Buckets.gt_10ms ]

(* Every export creates (and fsyncs) its target directory on first
   use, so `--export fresh/dir` just works and the new entry survives
   a crash. *)
let write_csv ~dir file ~header ~rows =
  Ksurf_util.Fileio.ensure_dir dir;
  let p = Filename.concat dir file in
  Csv.write ~path:p ~header ~rows;
  [ p ]

(* --- Studies: one entry per regenerable table, figure or study. *)

type outcome = {
  render : Format.formatter -> unit;
  csv : (dir:string -> string list) option;
  failures : int;
}

type study = {
  name : string;
  doc : string;
  journals : bool;
  exports : bool;
  run : context -> outcome;
}

(* The one way to build an entry, so [exports] always says whether
   [run]'s outcome carries a writer. *)
let study ?(journals = false) ?csv ?(failures = fun _ -> 0) name doc pp run =
  let run ctx =
    let t = run ctx in
    {
      render = (fun ppf -> pp ppf t);
      csv = Option.map (fun csv ~dir -> csv ~dir t) csv;
      failures = failures t;
    }
  in
  { name; doc; journals; exports = Option.is_some csv; run }

(* ------------------------------------------------------------------ *)

module Table1 = struct
  type t = (int * Partition.t) list

  let run (_ : context) =
    List.map (fun n -> (n, Partition.table1 n)) Partition.table1_rows

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

module Breakdown = struct
  type deployment = {
    label : string;
    kind : Env.kind;
    units : int;
    kernel_config : Ksurf_kernel.Config.t option;
  }

  type table = {
    file : string;
    title : t -> string;
    label_header : string * string;
    stats : Study.statistic list;
    deployments : deployment list;
  }

  and t = {
    table : table;
    rows : (string * (Study.statistic * Buckets.row) list) list;
    corpus_calls : int;
    invocations : int;
  }

  let deployment ?kernel_config label kind units =
    { label; kind; units; kernel_config }

  let table2 =
    {
      file = "table2.csv";
      title =
        (fun t ->
          Printf.sprintf
            "Table 2: cumulative %% of system calls with statistic below \
             each latency (corpus: %d call sites, %d \
             invocations/environment)"
            t.corpus_calls t.invocations);
      label_header = ("environment", "environment");
      stats = [ Study.Median; Study.P99; Study.Max ];
      deployments =
        [
          deployment "native" Env.Native 1;
          deployment "kvm-64" kvm_kind 64;
          deployment "docker-64" Env.Docker 64;
        ];
    }

  let table3 =
    {
      file = "table3.csv";
      title =
        Fun.const "Table 3: worst-case (max) breakdown across container counts";
      label_header = ("# ctnrs", "containers");
      stats = [ Study.Max ];
      deployments =
        List.map
          (fun n -> deployment (string_of_int n) Env.Docker n)
          Partition.table1_rows;
    }

  let ablate =
    let module C = Ksurf_kernel.Config in
    let native label kernel_config =
      deployment ~kernel_config label Env.Native 1
    in
    {
      file = "ablate.csv";
      title =
        Fun.const
          "E7 ablation: native 64-rank varbench with mechanisms disabled";
      label_header = ("variant", "variant");
      stats = [ Study.P99; Study.Max ];
      deployments =
        [
          native "default" C.default;
          native "no-background" (C.without_background C.default);
          native "no-tlb-shootdown" (C.without_tlb_shootdown C.default);
          native "no-timer-noise" (C.without_timer_noise C.default);
          native "all-off" C.quiet;
        ];
    }

  let lwvm =
    {
      file = "lwvm.csv";
      title =
        Fun.const
          "E9 extension: Table-2 breakdown across lightweight-VM technologies";
      label_header = ("environment", "environment");
      stats = [ Study.Median; Study.P99; Study.Max ];
      deployments =
        deployment "native" Env.Native 1
        :: deployment "docker-64" Env.Docker 64
        :: List.map
             (fun (name, virt) -> deployment (name ^ "-64") (Env.Kvm virt) 64)
             Ksurf_virt.Lightweight.all;
    }

  let run table ctx =
    let corpus = Lazy.force ctx.corpus in
    let cells =
      Sweep.map ctx
        (fun d ->
          let result =
            varbench ctx ~corpus
              (deploy ?kernel_config:d.kernel_config ctx d.kind d.units)
          in
          let stats = Study.site_stats result in
          let buckets s = (s, Study.bucket_row s stats) in
          ( (d.label, List.map buckets table.stats),
            Harness.total_invocations result ))
        table.deployments
    in
    {
      table;
      rows = List.map fst cells;
      corpus_calls = Corpus.total_calls corpus;
      invocations = (match List.rev cells with (_, n) :: _ -> n | [] -> 0);
    }

  (* A stat column only when there is more than one statistic to tell
     apart; the label is printed on its deployment's first line. *)
  let pp ppf t =
    Format.fprintf ppf "%s@.@." (t.table.title t);
    let stat_column = List.compare_length_with t.table.stats 1 > 0 in
    let rows =
      List.concat_map
        (fun (label, buckets) ->
          List.mapi
            (fun i (stat, row) ->
              let label = if i = 0 then label else "" in
              let cell = Format.asprintf "%a" Buckets.pp row in
              if stat_column then [ label; Study.statistic_name stat; cell ]
              else [ label; cell ])
            buckets)
        t.rows
    in
    let header = fst t.table.label_header in
    Report.table
      ~header:
        (if stat_column then [ header; "stat"; Buckets.header ]
         else [ header; Buckets.header ])
      ~rows ppf

  let csv ~dir t =
    write_csv ~dir t.table.file
      ~header:([ snd t.table.label_header; "statistic" ] @ bucket_header)
      ~rows:
        (List.concat_map
           (fun (label, buckets) ->
             List.map
               (fun (stat, row) ->
                 [ label; Study.statistic_name stat ] @ bucket_cells row)
               buckets)
           t.rows)
end

module Fig2 = struct
  type cell = { vms : int; category : Category.t; violin : Violin.t option }

  type t = { cells : cell list; filtered_sites : int; total_sites : int }

  let run ctx =
    let corpus = Lazy.force ctx.corpus in
    let stats_of kind units =
      Study.site_stats (varbench ctx ~corpus (deploy ctx kind units))
    in
    (* The paper filters to call sites whose native median is >= 10 us. *)
    let native = stats_of Env.Native 1 in
    let cells =
      List.concat
        (Sweep.map ctx
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
           Partition.table1_rows)
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

  let csv ~dir t =
    write_csv ~dir "fig2.csv"
      ~header:
        [ "vms"; "category"; "sites"; "min"; "lo95"; "q1"; "median"; "q3";
          "hi95"; "max" ]
      ~rows:
        (List.filter_map
           (fun (c : cell) ->
             Option.map
               (fun (v : Violin.t) ->
                 string_of_int c.vms :: Category.to_string c.category
                 :: string_of_int v.Violin.count
                 :: List.map (Printf.sprintf "%.1f")
                      Violin.
                        [ v.min; v.lo95; v.q1; v.median; v.q3; v.hi95; v.max ])
               c.violin)
           t.cells)
end

(* Fig 3 and Fig 4 sweep one grid, app x {kvm, docker} x {isolated,
   contended}, and draw it as the same three grouped-bar panels:
   isolated, contended, and the change between the two.  [key] names a
   cell by (app, kind, contended). *)
module App_grid = struct
  let run ctx apps f =
    Sweep.map ctx
      (fun (app, kind, contended) -> f ~app ~kind ~contended)
      (List.concat_map
         (fun app ->
           List.concat_map
             (fun kind -> [ (app, kind, false); (app, kind, true) ])
             [ kvm_kind; Env.Docker ])
         apps)

  let find key cells ~app ~kind ~contended =
    List.find_opt (fun c -> key c = (app, kind, contended)) cells

  let pp ~figure ~key ~value ~unit_label ~change ~change_title
      (isolated, contended, changed) ppf cells =
    let cell = find key cells in
    let apps =
      List.sort_uniq String.compare
        (List.map (fun c -> match key c with app, _, _ -> app) cells)
    in
    let value contended app kind =
      match cell ~app ~kind ~contended with Some r -> value r | None -> nan
    in
    let change app kind =
      match
        (cell ~app ~kind ~contended:false, cell ~app ~kind ~contended:true)
      with
      | Some isolated, Some contended -> change ~isolated ~contended
      | _ -> nan
    in
    List.iteri
      (fun i (heading, title, unit_label, f) ->
        if i > 0 then Format.fprintf ppf "@.";
        Format.fprintf ppf "Figure %d(%c): %s@." figure
          (Char.chr (Char.code 'a' + i)) heading;
        Report.grouped_bars ~title:("  " ^ title) ~unit_label
          ~series:[ "kvm"; "docker" ]
          (List.map (fun app -> (app, [ f app "kvm"; f app "docker" ])) apps)
          ppf)
      [
        (isolated, "isolated", unit_label, value false);
        (contended, "contended", unit_label, value true);
        (changed, change_title, "%", change);
      ]
end

module Fig3 = struct
  type t = { cells : Runner.result list }

  let runner_config ~seed = function
    | Quick -> { Runner.default_config with Runner.requests = 800; seed }
    | Full -> { Runner.default_config with Runner.seed = seed }

  let run ?(apps = Apps.all) ctx =
    let noise_corpus = Lazy.force ctx.corpus in
    let config = runner_config ~seed:ctx.seed ctx.scale in
    {
      cells =
        App_grid.run ctx apps (fun ~app ~kind ~contended ->
            Runner.run_single_node ~app ~kind ~contended ~config
              ~noise_corpus ());
    }

  let key (r : Runner.result) =
    (r.Runner.app_name, r.Runner.kind, r.Runner.contended)

  let cell t = App_grid.find key t.cells

  let pp ppf t =
    App_grid.pp ~figure:3 ~key
      ~value:(fun r -> r.Runner.p99 /. 1e6)
      ~unit_label:"ms" ~change:Runner.percent_increase ~change_title:"degradation"
      ( "isolated p99 request latency",
        "p99 with varbench competition",
        "p99 increase, isolated -> contended" )
      ppf t.cells

  let csv ~dir t =
    write_csv ~dir "fig3.csv"
      ~header:
        [ "app"; "kind"; "contended"; "mean_ns"; "p95_ns"; "p99_ns"; "max_ns";
          "degraded"; "survivors" ]
      ~rows:
        (List.map
           (fun (r : Runner.result) ->
             [
               r.Runner.app_name;
               r.Runner.kind;
               string_of_bool r.Runner.contended;
               Printf.sprintf "%.0f" r.Runner.mean;
               Printf.sprintf "%.0f" r.Runner.p95;
               Printf.sprintf "%.0f" r.Runner.p99;
               Printf.sprintf "%.0f" r.Runner.max;
               string_of_bool r.Runner.degraded;
               string_of_int r.Runner.survivors;
             ])
           t.cells)
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

  let run ?(apps = List.filter_map Apps.by_name paper_apps) ctx =
    let noise_corpus = Lazy.force ctx.corpus in
    let config = cluster_config ~seed:ctx.seed ctx.scale in
    {
      cells =
        App_grid.run ctx apps (fun ~app ~kind ~contended ->
            Cluster.run ~app ~kind ~contended ~config ~noise_corpus ());
    }

  let key (r : Cluster.result) =
    (r.Cluster.app_name, r.Cluster.kind, r.Cluster.contended)

  let cell t = App_grid.find key t.cells

  let pp ppf t =
    App_grid.pp ~figure:4 ~key
      ~value:(fun r -> r.Cluster.runtime_ns /. 1e9)
      ~unit_label:"s" ~change:Cluster.relative_loss ~change_title:"loss"
      ( "isolated 64-node runtimes",
        "multi-tenant 64-node runtimes",
        "relative loss, isolated -> multi-tenant" )
      ppf t.cells

  let csv ~dir t =
    write_csv ~dir "fig4.csv"
      ~header:
        [ "app"; "kind"; "contended"; "runtime_ns"; "node_mean_iter_ns";
          "node_p99_iter_ns"; "straggler_factor" ]
      ~rows:
        (List.map
           (fun (r : Cluster.result) ->
             [
               r.Cluster.app_name;
               r.Cluster.kind;
               string_of_bool r.Cluster.contended;
               Printf.sprintf "%.0f" r.Cluster.runtime_ns;
               Printf.sprintf "%.0f" r.Cluster.node_mean_iter_ns;
               Printf.sprintf "%.0f" r.Cluster.node_p99_iter_ns;
               Printf.sprintf "%.4f" r.Cluster.straggler_factor;
             ])
           t.cells)
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

  let run ctx =
    let corpus = Lazy.force ctx.corpus in
    let rows =
      List.concat
        (Sweep.map ctx (fun (env, kind, units) ->
          let deployed = deploy ctx kind units in
          ignore (varbench ctx ~corpus deployed);
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

  let run ?(apps = List.filter_map Apps.by_name [ "silo"; "sphinx" ]) ctx =
    let corpus = Lazy.force ctx.corpus in
    let config = Fig4.cluster_config ~seed:ctx.seed ctx.scale in
    (* Two sweeps: one unscaled docker reference per app, then the
       (app x exit-scale) KVM grid — splitting them keeps every cell
       independent so both can fan out. *)
    let dockers =
      Sweep.map ctx
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
      Sweep.map ctx
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

  let csv ~dir t =
    write_csv ~dir "ablate_virt.csv"
      ~header:[ "app"; "exit_scale"; "kvm_runtime_ns"; "docker_runtime_ns" ]
      ~rows:
        (List.map
           (fun (r : row) ->
             [
               r.app;
               Printf.sprintf "%.2f" r.exit_scale;
               Printf.sprintf "%.0f" r.kvm_runtime_ns;
               Printf.sprintf "%.0f" r.docker_runtime_ns;
             ])
           t.rows)
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

  let default_intensities = [ 0.0; 0.5; 1.0; 2.0 ]

  let cell_key ((d : Breakdown.deployment), intensity) =
    Printf.sprintf "dose:%s:%.2f" d.label intensity

  (* Table 2's three environments under the "mixed" preset: every
     mechanism, no crashes. *)
  let run ?(intensities = default_intensities) ctx =
    let corpus = Lazy.force ctx.corpus in
    let plan = Option.get (Plan.preset "mixed") in
    let specs =
      List.concat_map
        (fun d -> List.map (fun i -> (d, i)) intensities)
        Breakdown.table2.deployments
    in
    let cells =
      Sweep.run ctx ~key:cell_key
        (fun ((d : Breakdown.deployment), intensity) ->
          let env = deploy ctx d.kind d.units in
          let kf =
            Kfault.arm ~env ~plan:(Plan.scale intensity plan) ~seed:ctx.seed ()
          in
          let result = varbench ctx ~corpus env in
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
            env = d.label;
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

  (* p99 relative to the same environment's zero-dose baseline. *)
  let vs_baseline t c =
    match cell t ~env:c.env ~intensity:0.0 with
    | Some base when base.p99 > 0.0 -> Some (c.p99 /. base.p99)
    | _ -> None

  (* The sensitivity curve the study plots. *)
  let degradation t ~env =
    List.filter_map
      (fun c ->
        if c.env = env then
          Option.map (fun r -> (c.intensity, r)) (vs_baseline t c)
        else None)
      t.cells

  let pp ppf t =
    Format.fprintf ppf
      "Dose-response: varbench p99 sensitivity to injected faults (plan %s)@.@."
      t.plan_name;
    let rows =
      List.map
        (fun c ->
          [
            c.env;
            Printf.sprintf "%.2f" c.intensity;
            Printf.sprintf "%.1f" (c.p99 /. 1e3);
            Option.fold ~none:"-" ~some:(Printf.sprintf "%.2fx")
              (vs_baseline t c);
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

  let csv ~dir t =
    write_csv ~dir "dose.csv"
      ~header:
        [ "environment"; "intensity"; "p99_ns"; "cov"; "injections"; "retries";
          "degraded"; "survivors" ]
      ~rows:
        (List.map
           (fun (c : cell) ->
             [
               c.env;
               Printf.sprintf "%.2f" c.intensity;
               Printf.sprintf "%.0f" c.p99;
               Printf.sprintf "%.4f" c.cov;
               string_of_int c.injections;
               string_of_int c.retries;
               string_of_bool c.degraded;
               string_of_int c.survivors;
             ])
           t.cells)
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

  let workload ctx =
    let full = Lazy.force ctx.corpus in
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

  let run ctx =
    let corpus = workload ctx in
    let spec =
      Specializer.compile (Profile.of_corpus ~name:"varbench-fs" corpus)
    in
    let cell ?kernel_config ?(specialized = false) name kind units =
      let env = deploy ?kernel_config ctx kind units in
      if specialized then Specializer.install_all env spec;
      measure ~name ~env (varbench ctx ~corpus env)
    in
    let rows =
      Sweep.run ctx
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

  let csv ~dir t =
    write_csv ~dir "specialize.csv"
      ~header:
        ([ "environment"; "p50_ns"; "p99_ns"; "tail_ratio"; "denials";
           "surface_area"; "statistic" ]
        @ bucket_header)
      ~rows:
        (List.concat_map
           (fun (r : row) ->
             let base =
               [
                 r.env;
                 Printf.sprintf "%.0f" r.p50;
                 Printf.sprintf "%.0f" r.p99;
                 Printf.sprintf "%.4f" r.tail_ratio;
                 string_of_int r.denials;
                 Printf.sprintf "%.4f" r.surface_area;
               ]
             in
             [
               (base @ [ "p99" ]) @ bucket_cells r.p99_bucket;
               (base @ [ "max" ]) @ bucket_cells r.max_bucket;
             ])
           t.rows)
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

  let run ?(rates = default_rates) ctx =
    let corpus = Lazy.force ctx.corpus in
    let app = Option.get (Apps.by_name "silo") in
    let cconfig = Fig4.cluster_config ~seed:ctx.seed ctx.scale in
    (* One set of node simulations feeds every (policy x rate) cell: the
       sweep varies only the supervision, never the empirical pool.  The
       node simulations themselves fan out across the context's pool. *)
    let iter_pool =
      Cluster.pool ~app ~kind:kvm_kind ~contended:false ~config:cconfig
        ~noise_corpus:corpus ?par:ctx.pool ()
    in
    let iterations =
      match ctx.scale with Quick -> 12 | Full -> cconfig.Cluster.iterations
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
        seed = ctx.seed;
      }
    in
    let specs =
      List.concat_map
        (fun policy -> List.map (fun rate -> (policy, rate)) rates)
        policies
    in
    let cells =
      Sweep.run ctx
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

  (* Runtime relative to the same policy's crash-free baseline. *)
  let vs_crash_free t c =
    match cell t ~policy:c.policy ~crash_rate:0.0 with
    | Some base when base.runtime_ns > 0.0 ->
        Some (c.runtime_ns /. base.runtime_ns)
    | _ -> None

  (* The recovery-cost curve the study plots. *)
  let overhead t ~policy =
    List.filter_map
      (fun c ->
        if c.policy = policy then
          Option.map (fun r -> (c.crash_rate, r)) (vs_crash_free t c)
        else None)
      t.cells

  let pp ppf t =
    Format.fprintf ppf
      "Recovery study: crash rate x policy on the %d-node BSP synthesis \
       (%d supersteps, pool mean %.2f ms)@.@."
      t.nodes t.iterations (t.pool_mean_ns /. 1e6);
    let rows =
      List.map
        (fun c ->
          [
            c.policy;
            Printf.sprintf "%.3f" c.crash_rate;
            Printf.sprintf "%.3f" (c.runtime_ns /. 1e9);
            Option.fold ~none:"-" ~some:(Printf.sprintf "%.2fx")
              (vs_crash_free t c);
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

  let csv ~dir t =
    write_csv ~dir "recover.csv"
      ~header:
        [ "policy"; "crash_rate"; "runtime_ns"; "vs_crash_free";
          "straggler_factor"; "supersteps"; "survivors"; "degraded"; "crashes";
          "restarts"; "backups"; "deaths"; "transitions"; "checkpoints" ]
      ~rows:
        (List.map
           (fun (c : cell) ->
             [
               c.policy;
               Printf.sprintf "%.4f" c.crash_rate;
               Printf.sprintf "%.0f" c.runtime_ns;
               Option.fold ~none:"" ~some:(Printf.sprintf "%.4f")
                 (vs_crash_free t c);
               Printf.sprintf "%.4f" c.straggler_factor;
               string_of_int c.supersteps;
               string_of_int c.survivors;
               string_of_bool c.degraded;
             ]
             @ List.map string_of_int
                 [ c.crashes; c.restarts; c.backups; c.deaths; c.transitions;
                   c.checkpoints ])
           t.cells)
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

  let run ?tenants ?churns ?(policies = default_policies) ctx =
    let tenants = Option.value tenants ~default:(default_tenants ctx.scale) in
    let churns = Option.value churns ~default:(default_churns ctx.scale) in
    let specs =
      List.concat_map
        (fun policy ->
          List.concat_map
            (fun n -> List.map (fun churn -> (policy, n, churn)) churns)
            tenants)
        policies
    in
    let cells =
      Sweep.run ctx ~key:cell_key
        (fun (policy, tenants, churn) ->
          Fleet.run
            (fleet_config ~seed:ctx.seed ~scale:ctx.scale ~policy ~tenants
               ~churn))
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

  let csv ~dir t =
    write_csv ~dir "tenancy.csv"
      ~header:
        [ "policy"; "tenants"; "churn_per_day"; "completed"; "mean_ns";
          "p50_ns"; "p95_ns"; "p99_ns"; "max_ns"; "slo_ns"; "measured";
          "slo_met"; "attainment"; "epoch_violations"; "arrivals";
          "departures"; "cgroup_creates"; "cgroup_destroys"; "migrations";
          "scale_ups"; "scale_downs"; "replica_imbalance"; "peak_cgroups";
          "final_native";
          "final_docker"; "final_kvm"; "final_mk" ]
      ~rows:
        (List.map
           (fun (c : cell) ->
             let module F = Ksurf_tenant.Fleet in
             [ c.F.policy; string_of_int c.F.tenants;
               Printf.sprintf "%.2f" c.F.churn_per_day;
               string_of_int c.F.completed ]
             @ List.map (Printf.sprintf "%.0f")
                 [ c.F.mean; c.F.p50; c.F.p95; c.F.p99; c.F.max; c.F.slo_ns ]
             @ [ string_of_int c.F.measured; string_of_int c.F.slo_met;
                 Printf.sprintf "%.4f" c.F.attainment ]
             @ List.map string_of_int
                 [ c.F.epoch_violations; c.F.arrivals; c.F.departures;
                   c.F.cgroup_creates; c.F.cgroup_destroys; c.F.migrations;
                   c.F.scale_ups; c.F.scale_downs; c.F.replica_imbalance;
                   c.F.peak_cgroups; c.F.final_native; c.F.final_docker;
                   c.F.final_kvm; c.F.final_mk ])
           t.cells)

  (* The tenancy entry over a chosen grid; [studies] holds the default
     one and [ksurf_cli tenancy]'s grid flags build the others. *)
  let study ?tenants ?churns ?policies () =
    study ~journals:true ~csv "tenancy"
      "ktenant study: fleet-scale multi-tenant serving under churn and \
       diurnal load — placement policy x tenant count x churn rate, with \
       per-tenant p99 SLO autoscaling"
      pp
      (run ?tenants ?churns ?policies)
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

  let run ?(doses = default_doses) ?(policies = default_policies) ctx =
    let specs =
      List.concat_map
        (fun policy -> List.map (fun dose -> (policy, dose)) doses)
        policies
    in
    let cells =
      Sweep.run ctx ~key:cell_key
        (fun (policy, dose) ->
          Driftbench.run
            (cell_config ~seed:ctx.seed ~scale:ctx.scale ~policy ~dose))
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

  let csv ~dir t =
    let opt_ns = function
      | None -> ""
      | Some ns -> Printf.sprintf "%.0f" ns
    in
    write_csv ~dir "drift.csv"
      ~header:
        [ "policy"; "dose"; "ranks"; "epochs"; "calls"; "denied";
          "calls_post_drift"; "denied_post_drift"; "fp_rate"; "p99_ns";
          "surface"; "surface_full"; "reduction"; "drift_at_ns";
          "reconverge_ns"; "promotions"; "demotions"; "respecializations";
          "swaps"; "drifts"; "mean_denial_rate"; "p95_divergence" ]
      ~rows:
        (List.map
           (fun (c : cell) ->
             let module D = Ksurf_adapt.Driftbench in
             [ c.D.policy; Printf.sprintf "%.2f" c.D.dose ]
             @ List.map string_of_int
                 [ c.D.ranks; c.D.epochs; c.D.calls; c.D.denied;
                   c.D.calls_post_drift; c.D.denied_post_drift ]
             @ [ Printf.sprintf "%.6f" c.D.fp_rate;
                 Printf.sprintf "%.0f" c.D.p99_ns ]
             @ List.map (Printf.sprintf "%.4f")
                 [ c.D.surface; c.D.surface_full; c.D.reduction ]
             @ [ opt_ns c.D.drift_at_ns; opt_ns c.D.reconverge_ns ]
             @ List.map string_of_int
                 [ c.D.promotions; c.D.demotions; c.D.respecializations;
                   c.D.swaps; c.D.drifts ]
             @ List.map (Printf.sprintf "%.6f")
                 [ c.D.mean_denial_rate; c.D.p95_divergence ])
           t.cells)

  let study ?doses ?policies () =
    study ~journals:true ~csv "drift"
      "kadapt study: online adaptive specialization under workload drift — \
       policy x dose, tabling false-positive ENOSYS rate vs retained \
       surface area vs time-to-reconverge"
      pp
      (run ?doses ?policies)
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

  let run ?(doses = default_doses) ?(kinds = default_kinds)
      ?(scratch = default_scratch) ctx =
    let specs =
      List.concat_map
        (fun kind -> List.map (fun dose -> (kind, dose)) doses)
        kinds
    in
    let cells =
      Sweep.run ctx ~key:cell_key
        (fun (kind, dose) ->
          T.run
            (cell_config ~seed:ctx.seed ~scale:ctx.scale ~scratch ~kind ~dose))
        specs
    in
    { cells }

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

  let csv ~dir t =
    write_csv ~dir "torture.csv"
      ~header:
        [ "path"; "dose"; "trace_ops"; "crash_points"; "crash_states";
          "enum_violations"; "torn_refused"; "live_runs"; "live_ok";
          "recovery_ok"; "crashes"; "transients"; "enospc"; "eio";
          "torn_writes"; "fsync_dropped"; "deferred_persists"; "cells_lost";
          "double_runs"; "litter"; "litter_after" ]
      ~rows:
        (List.map
           (fun (c : cell) ->
             let module T = Ksurf_dur.Torture in
             [ c.T.kind; Printf.sprintf "%.2f" c.T.dose ]
             @ List.map string_of_int
                 [ c.T.trace_ops; c.T.crash_points; c.T.crash_states;
                   c.T.enum_violations; c.T.torn_refused; c.T.live_runs;
                   c.T.live_ok ]
             @ (Printf.sprintf "%.4f" c.T.recovery_ok
               :: List.map string_of_int
                    [ c.T.crashes; c.T.transients; c.T.enospc; c.T.eio;
                      c.T.torn_writes; c.T.fsync_dropped; c.T.deferred_persists;
                      c.T.cells_lost; c.T.double_runs; c.T.litter;
                      c.T.litter_after ]))
           t.cells)

  (* Each run tortures its writers in a per-pid scratch directory, so
     concurrent runs never share crash states, and removes it after. *)
  let study ?doses ?kinds () =
    study ~journals:true ~csv ~failures:violations "torture"
      "kdur study: host-I/O fault injection and crash-consistency torture \
       — writer path x dose, enumerating every crash state and recovering \
       every live faulted run"
      pp
      (fun ctx ->
        let scratch = default_scratch ^ "." ^ string_of_int (Unix.getpid ()) in
        Fun.protect
          ~finally:(fun () -> Ksurf_dur.Crashsim.rm_tree scratch)
          (fun () -> run ?doses ?kinds ~scratch ctx))
end

let studies =
  let breakdown name doc table =
    study ~csv:Breakdown.csv name doc Breakdown.pp (Breakdown.run table)
  in
  [
    study "table1" "Print the VM configuration sweep (Table 1)" Table1.pp
      Table1.run;
    breakdown "table2" "Syscall latency breakdown (Table 2)" Breakdown.table2;
    study ~csv:Fig2.csv "fig2" "Per-subsystem p99 vs VM count (Figure 2)"
      Fig2.pp Fig2.run;
    breakdown "table3" "Container worst-case breakdown (Table 3)"
      Breakdown.table3;
    study ~csv:Fig3.csv "fig3" "Single-node tail latency (Figure 3)" Fig3.pp
      Fig3.run;
    study ~csv:Fig4.csv "fig4" "64-node BSP runtimes (Figure 4)" Fig4.pp
      Fig4.run;
    breakdown "ablate" "E7: variability-mechanism knockouts" Breakdown.ablate;
    study ~csv:Ablate_virt.csv "ablate-virt" "E8: exit-cost sensitivity sweep"
      Ablate_virt.pp Ablate_virt.run;
    breakdown "lwvm" "E9: lightweight-VM technology comparison" Breakdown.lwvm;
    study "locks" "E10: per-lock contention attribution" Locks.pp Locks.run;
    study ~journals:true ~csv:Dose.csv "dose"
      "Dose-response: fault-intensity sensitivity sweep" Dose.pp Dose.run;
    study ~journals:true ~csv:Specialize.csv "specialize"
      "kspec study: per-tenant specialized kernels (multikernel) vs shared \
       native vs kvm-64 on the same fs-restricted workload"
      Specialize.pp Specialize.run;
    study ~journals:true ~csv:Recover.csv "recover"
      "krecov study: crash rate x recovery policy on the supervised 64-node \
       BSP synthesis"
      Recover.pp Recover.run;
    Tenancy.study ();
    Drift.study ();
    Torture.study ();
  ]
