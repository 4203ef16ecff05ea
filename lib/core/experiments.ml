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

(* --- One column list per study.  A column has a CSV side, a stdout
   side, or both; each side is a header and the text of one row, and
   the text may read the whole result (a ratio against a baseline
   row).  [csvs] and [render] are the only readers, so a study's
   exported file and its printed table come from one declaration.  A
   list names its CSV file when the study exports one; [shown] keeps
   the rows the stdout table prints (the CSV carries every row).

   A list, and a study's [exports], are built on each use, not when
   the program starts: data a module keeps live from start-up shifts
   the GC's pacing of every later allocation (the ledger's fleet-churn
   peak RSS reads 71 MB so, 104 MB with every list built at start-up
   and 81 MB with only the headers kept), so a declaration holds
   nothing until a study reads it. *)

type csv = { file : string; header : string list; rows : string list list }

type ('t, 'r) column = {
  csv : (string * ('t -> 'r -> string)) option;
  shown : (string * ('t -> 'r -> string)) option;
}

type 't columns =
  | Columns : {
      file : string option;
      rows : 't -> 'r list;
      shown : 'r -> bool;
      columns : unit -> ('t, 'r) column list;
    }
      -> 't columns

let side header text = Some (header, fun _ r -> text r)
let csv header text = { csv = side header text; shown = None }
let shown header text = { csv = None; shown = side header text }

(* Both sides, one text; [shown] renames the stdout header. *)
let col ?shown:label header text =
  let label = Option.value label ~default:header in
  { csv = side header text; shown = side label text }

let count ?shown name get = col ?shown name (fun r -> string_of_int (get r))
let csv_count name get = csv name (fun r -> string_of_int (get r))

(* One entry, a different header and text on each side. *)
let both (csv_header, csv_text) (shown_header, shown_text) =
  { csv = side csv_header csv_text; shown = side shown_header shown_text }

(* A float in the CSV's format, and on stdout only with [shown]'s
   header and format. *)
let num ?shown (header, fmt) get =
  let text fmt r = Printf.sprintf fmt (get r) in
  { csv = side header (text fmt);
    shown = Option.bind shown (fun (h, fmt) -> side h (text fmt)) }

(* A nanosecond figure: exact in the CSV, in microseconds on stdout. *)
let us name get =
  both
    (name ^ "_ns", fun r -> Printf.sprintf "%.0f" (get r))
    (name ^ " (us)", fun r -> Printf.sprintf "%.1f" (get r /. 1e3))

(* [k] with its stdout text printed only on the rows [first] accepts
   (blank on the others): a group's figures on its first row. *)
let only_on first k =
  let blank (h, text) = (h, fun t r -> if first r then text t r else "") in
  { k with shown = Option.map blank k.shown }

(* A side's text for a ratio read off the whole result: [fmt], or
   [none] when the ratio has no baseline. *)
let ratio ratio_of (fmt, none) t r =
  Option.fold ~none ~some:(Printf.sprintf fmt) (ratio_of t r)

let columns ?file ?(shown = fun _ -> true) rows columns =
  Columns { file; rows; shown; columns }

let cells sides t rows =
  List.map (fun r -> List.map (fun (_, text) -> text t r) sides) rows

let exports (Columns c) =
  let header =
    List.filter_map (fun k -> Option.map fst k.csv) (c.columns ())
  in
  List.map (fun file -> (file, header)) (Option.to_list c.file)

let csvs (Columns c) t =
  let sides = List.filter_map (fun k -> k.csv) (c.columns ()) in
  List.map
    (fun file ->
      { file; header = List.map fst sides; rows = cells sides t (c.rows t) })
    (Option.to_list c.file)

let render (Columns c) t ppf =
  let sides = List.filter_map (fun k -> k.shown) (c.columns ()) in
  Report.table ~header:(List.map fst sides)
    ~rows:(cells sides t (List.filter c.shown (c.rows t)))
    ppf

(* Every export creates (and fsyncs) its target directory on first
   use, so `--export fresh/dir` just works and the new entry survives
   a crash. *)
let write_csv ~dir c =
  Ksurf_util.Fileio.ensure_dir dir;
  let path = Filename.concat dir c.file in
  Csv.write ~path ~header:c.header ~rows:c.rows;
  path

(* CSV-only float columns, one per field [get] reads from a row's
   [part]. *)
let fields fmt part =
  List.map (fun (header, get) ->
      csv header (fun r -> Printf.sprintf fmt (get (part r))))

let bucket_columns row =
  fields "%.4f" row
    Buckets.
      [ ("le_1us", fun b -> b.le_1us); ("le_10us", fun b -> b.le_10us);
        ("le_100us", fun b -> b.le_100us); ("le_1ms", fun b -> b.le_1ms);
        ("le_10ms", fun b -> b.le_10ms); ("gt_10ms", fun b -> b.gt_10ms) ]

(* --- Studies: one entry per regenerable table, figure or study. *)

type outcome = { render : Format.formatter -> unit; csvs : csv list }

type study = {
  name : string;
  doc : string;
  journals : bool;
  exports : unit -> (string * string list) list;
  run : context -> outcome;
}

(* The one way to build an entry: its exports and its outcome's CSV
   files both come from the study's column list. *)
let study ?(journals = false) name doc columns pp run =
  let run ctx =
    let t = run ctx in
    { render = Fun.flip pp t; csvs = csvs columns t }
  in
  { name; doc; journals; exports = (fun () -> exports columns); run }

(* ------------------------------------------------------------------ *)

module Table1 = struct
  type t = (int * Partition.t) list

  let run (_ : context) =
    List.map (fun n -> (n, Partition.table1 n)) Partition.table1_rows

  let columns =
    let unit text (_, p) =
      match p.Partition.units with u :: _ -> text u | [] -> "-"
    in
    columns Fun.id @@ fun () ->
    [
      shown "# VMs" (fun (n, _) -> string_of_int n);
      shown "Cores/VM" (unit (fun u -> string_of_int u.Partition.cores));
      shown "GB RAM/VM" (unit (fun u ->
          let gb = float_of_int u.Partition.mem_mb /. 1024.0 in
          Printf.sprintf "%.1f" gb));
    ]

  let pp = Fun.flip (render columns)
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

  (* One row per (deployment, statistic).  Stdout prints the label on
     its deployment's first row, a stat column only when there is more
     than one statistic to tell apart, and the buckets as one cell. *)
  let columns table =
    let shown_label, csv_label = table.label_header in
    let stat (_, _, s, _) = Study.statistic_name s in
    let many = List.compare_length_with table.stats 1 > 0 in
    columns ~file:table.file
      (fun t ->
        List.concat_map
          (fun (label, buckets) ->
            List.mapi (fun i (s, row) -> (label, i, s, row)) buckets)
          t.rows) @@ fun () ->
    only_on
      (fun (_, i, _, _) -> i = 0)
      (col csv_label ~shown:shown_label (fun (label, _, _, _) -> label))
    :: { csv = side "statistic" stat;
         shown = (if many then side "stat" stat else None) }
    :: shown Buckets.header (fun (_, _, _, b) ->
           Format.asprintf "%a" Buckets.pp b)
    :: bucket_columns (fun (_, _, _, b) -> b)

  let pp ppf t =
    Format.fprintf ppf "%s@.@." (t.table.title t);
    render (columns t.table) t ppf
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

  let columns =
    columns ~file:"fig2.csv"
      (fun t ->
        List.filter_map
          (fun (c : cell) -> Option.map (fun v -> (c, v)) c.violin)
          t.cells) @@ fun () ->
    csv "vms" (fun ((c : cell), _) -> string_of_int c.vms)
    :: csv "category" (fun ((c : cell), _) -> Category.to_string c.category)
    :: csv_count "sites" (fun (_, v) -> v.Violin.count)
    :: fields "%.1f" snd
         Violin.
           [ ("min", fun v -> v.min); ("lo95", fun v -> v.lo95);
             ("q1", fun v -> v.q1); ("median", fun v -> v.median);
             ("q3", fun v -> v.q3); ("hi95", fun v -> v.hi95);
             ("max", fun v -> v.max) ]
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

  let columns =
    columns ~file:"fig3.csv" (fun t -> t.cells) @@ fun () ->
    Runner.(
      csv "app" (fun r -> r.app_name)
      :: csv "kind" (fun r -> r.kind)
      :: csv "contended" (fun r -> string_of_bool r.contended)
      :: fields "%.0f" Fun.id
           [ ("mean_ns", fun r -> r.mean); ("p95_ns", fun r -> r.p95);
             ("p99_ns", fun r -> r.p99); ("max_ns", fun r -> r.max) ]
      @ [ csv "degraded" (fun r -> string_of_bool r.degraded);
          csv_count "survivors" (fun r -> r.survivors) ])
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

  let columns =
    columns ~file:"fig4.csv" (fun t -> t.cells) @@ fun () ->
    Cluster.(
      csv "app" (fun r -> r.app_name)
      :: csv "kind" (fun r -> r.kind)
      :: csv "contended" (fun r -> string_of_bool r.contended)
      :: fields "%.0f" Fun.id
           [ ("runtime_ns", fun r -> r.runtime_ns);
             ("node_mean_iter_ns", fun r -> r.node_mean_iter_ns);
             ("node_p99_iter_ns", fun r -> r.node_p99_iter_ns) ]
      @ [ num ("straggler_factor", "%.4f") (fun r -> r.straggler_factor) ])
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

  (* The CSV carries every lock; stdout omits the quiet ones. *)
  let columns =
    let wait name shown_name get =
      both
        (name, fun r -> Printf.sprintf "%.1f" (get r))
        (shown_name, fun r -> Report.duration_ns (get r))
    in
    columns ~file:"locks.csv"
      ~shown:(fun r -> r.contended_pct >= 0.1)
      (fun t -> t.rows) @@ fun () ->
    [
      col "environment" (fun r -> r.env);
      col "lock" (fun r -> r.lock);
      count "acquisitions" ~shown:"acq" (fun r -> r.acquisitions);
      num ("contended_pct", "%.4f") ~shown:("contended", "%.1f%%")
        (fun r -> r.contended_pct);
      wait "mean_wait_ns" "mean wait" (fun r -> r.mean_wait_ns);
      wait "max_wait_ns" "max wait" (fun r -> r.max_wait_ns);
    ]

  let pp ppf t =
    Format.fprintf ppf
      "E10 diagnostic: per-lock contention under the corpus (>= 0.1%% contended)@.@.";
    render columns t ppf
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

  let columns =
    let runtime name get =
      both
        (name ^ "_runtime_ns", fun r -> Printf.sprintf "%.0f" (get r))
        (name ^ " (s)", fun r -> Printf.sprintf "%.3f" (get r /. 1e9))
    in
    columns ~file:"ablate_virt.csv" (fun t -> t.rows) @@ fun () ->
    [
      col "app" (fun r -> r.app);
      col "exit_scale" ~shown:"exit scale" (fun r ->
          Printf.sprintf "%.2f" r.exit_scale);
      runtime "kvm" (fun r -> r.kvm_runtime_ns);
      runtime "docker" (fun r -> r.docker_runtime_ns);
      shown "kvm advantage" (fun r ->
          Printf.sprintf "%+.1f%%"
            (100.0 *. (r.docker_runtime_ns -. r.kvm_runtime_ns)
            /. r.docker_runtime_ns));
    ]

  let pp ppf t =
    Format.fprintf ppf
      "E8 ablation: contended 64-node KVM runtime as exit costs shrink@.@.";
    render columns t ppf
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

  let columns =
    columns ~file:"dose.csv" (fun t -> t.cells) @@ fun () ->
    [
      col "environment" (fun c -> c.env);
      col "intensity" ~shown:"dose" (fun c ->
          Printf.sprintf "%.2f" c.intensity);
      us "p99" (fun c -> c.p99);
      { csv = None;
        shown = Some ("vs baseline", ratio vs_baseline ("%.2fx", "-")) };
      num ("cov", "%.4f") ~shown:("CoV", "%.3f") (fun c -> c.cov);
      count "injections" (fun c -> c.injections);
      count "retries" (fun c -> c.retries);
      both
        ("degraded", fun c -> string_of_bool c.degraded)
        ("degraded", fun c ->
          if c.degraded then Printf.sprintf "yes (%d left)" c.survivors
          else "no");
      csv_count "survivors" (fun c -> c.survivors);
    ]

  let pp ppf t =
    Format.fprintf ppf
      "Dose-response: varbench p99 sensitivity to injected faults (plan %s)@.@."
      t.plan_name;
    render columns t ppf
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

  (* Two rows per environment, one per bucketed statistic.  Stdout
     prints the environment's figures on its p99 row only. *)
  let columns =
    columns ~file:"specialize.csv"
      (fun t ->
        List.concat_map
          (fun r -> [ (r, "p99", r.p99_bucket); (r, "max", r.max_bucket) ])
          t.rows) @@ fun () ->
    let p99_row = only_on (fun (_, stat, _) -> stat = "p99") in
    let stat (_, stat, _) = stat in
    [
      p99_row (col "environment" (fun (r, _, _) -> r.env));
      shown "stat" stat;
      shown Buckets.header (fun (_, _, b) -> Format.asprintf "%a" Buckets.pp b);
    ]
    @ List.map p99_row
        [
          us "p50" (fun (r, _, _) -> r.p50);
          us "p99" (fun (r, _, _) -> r.p99);
          num ("tail_ratio", "%.4f") ~shown:("site p99/p50", "%.2f")
            (fun (r, _, _) -> r.tail_ratio);
          count "denials" (fun (r, _, _) -> r.denials);
          num ("surface_area", "%.4f") ~shown:("surface", "%.3f")
            (fun (r, _, _) -> r.surface_area);
        ]
    @ csv "statistic" stat :: bucket_columns (fun (_, _, b) -> b)

  let pp ppf t =
    Format.fprintf ppf
      "Specialization (kspec): fs-restricted varbench (%d call sites), \
       64 ranks per environment@.@.%a@.@."
      t.corpus_calls Ksurf_spec.Spec.pp t.spec;
    render columns t ppf
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
     still attains the SLO for at least 95% of its tenants.  Cells with
     no measured tenant carry no verdict — their attainment of 0 is
     no-data, not failure — so they can neither anchor nor be part of
     the frontier. *)
  let frontier_floor = 0.95

  let frontier t =
    let key (c : cell) = (c.Fleet.tenants, c.Fleet.churn_per_day) in
    let attains (c : cell) =
      c.Fleet.measured > 0 && c.Fleet.attainment >= frontier_floor
    in
    List.map
      (fun p ->
        let best acc (c : cell) =
          match acc with
          | Some b when key b >= key c -> acc
          | _ -> if c.Fleet.policy = p && attains c then Some c else acc
        in
        (p, List.fold_left best None t.cells))
      (List.sort_uniq compare
         (List.map (fun (c : cell) -> c.Fleet.policy) t.cells))

  let columns =
    let module F = Fleet in
    columns ~file:"tenancy.csv" (fun t -> t.cells) @@ fun () ->
    [
      col "policy" (fun c -> c.F.policy);
      count "tenants" (fun c -> c.F.tenants);
      num ("churn_per_day", "%.2f") ~shown:("churn/day", "%.1f")
        (fun c -> c.F.churn_per_day);
      count "completed" ~shown:"requests" (fun c -> c.F.completed);
      num ("mean_ns", "%.0f") (fun c -> c.F.mean);
      us "p50" (fun c -> c.F.p50);
      num ("p95_ns", "%.0f") (fun c -> c.F.p95);
      us "p99" (fun c -> c.F.p99);
      num ("max_ns", "%.0f") (fun c -> c.F.max);
      num ("slo_ns", "%.0f") (fun c -> c.F.slo_ns);
      csv_count "measured" (fun c -> c.F.measured);
      csv_count "slo_met" (fun c -> c.F.slo_met);
      both
        ("attainment", fun c -> Printf.sprintf "%.4f" c.F.attainment)
        ( "slo attain",
          fun c ->
            if c.F.measured = 0 then "n/a"
            else Printf.sprintf "%.3f" c.F.attainment );
      count "epoch_violations" ~shown:"viol epochs" (fun c ->
          c.F.epoch_violations);
      csv_count "arrivals" (fun c -> c.F.arrivals);
      csv_count "departures" (fun c -> c.F.departures);
      csv_count "cgroup_creates" (fun c -> c.F.cgroup_creates);
      csv_count "cgroup_destroys" (fun c -> c.F.cgroup_destroys);
      shown "cg storms" (fun c ->
          string_of_int (c.F.cgroup_creates + c.F.cgroup_destroys));
      count "migrations" ~shown:"migr" (fun c -> c.F.migrations);
      csv_count "scale_ups" (fun c -> c.F.scale_ups);
      csv_count "scale_downs" (fun c -> c.F.scale_downs);
      shown "scale" (fun c -> string_of_int (c.F.scale_ups + c.F.scale_downs));
      csv_count "replica_imbalance" (fun c -> c.F.replica_imbalance);
      csv_count "peak_cgroups" (fun c -> c.F.peak_cgroups);
      csv_count "final_native" (fun c -> c.F.final_native);
      csv_count "final_docker" (fun c -> c.F.final_docker);
      csv_count "final_kvm" (fun c -> c.F.final_kvm);
      csv_count "final_mk" (fun c -> c.F.final_mk);
    ]

  let pp ppf t =
    Format.fprintf ppf
      "Tenancy study: fleet p99 and SLO attainment (p99 <= %.0f us per \
       tenant) by policy x tenants x churn@.@."
      (t.slo_ns /. 1e3);
    render columns t ppf;
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

  (* The tenancy entry over a chosen grid; [studies] holds the default
     one and [ksurf_cli tenancy]'s grid flags build the others. *)
  let study ?tenants ?churns ?policies () =
    study ~journals:true "tenancy"
      "ktenant study: fleet-scale multi-tenant serving under churn and \
       diurnal load — placement policy x tenant count x churn rate, with \
       per-tenant p99 SLO autoscaling"
      columns pp
      (run ?tenants ?churns ?policies)
end

let studies =
  let breakdown name doc table =
    study name doc (Breakdown.columns table) Breakdown.pp (Breakdown.run table)
  in
  [
    study "table1" "Print the VM configuration sweep (Table 1)" Table1.columns
      Table1.pp Table1.run;
    breakdown "table2" "Syscall latency breakdown (Table 2)" Breakdown.table2;
    study "fig2" "Per-subsystem p99 vs VM count (Figure 2)" Fig2.columns Fig2.pp
      Fig2.run;
    breakdown "table3" "Container worst-case breakdown (Table 3)"
      Breakdown.table3;
    study "fig3" "Single-node tail latency (Figure 3)" Fig3.columns Fig3.pp
      Fig3.run;
    study "fig4" "64-node BSP runtimes (Figure 4)" Fig4.columns Fig4.pp
      Fig4.run;
    breakdown "ablate" "E7: variability-mechanism knockouts" Breakdown.ablate;
    study "ablate-virt" "E8: exit-cost sensitivity sweep" Ablate_virt.columns
      Ablate_virt.pp Ablate_virt.run;
    breakdown "lwvm" "E9: lightweight-VM technology comparison" Breakdown.lwvm;
    study "locks" "E10: per-lock contention attribution" Locks.columns Locks.pp
      Locks.run;
    study ~journals:true "dose"
      "Dose-response: fault-intensity sensitivity sweep" Dose.columns Dose.pp
      Dose.run;
    study ~journals:true "specialize"
      "kspec study: per-tenant specialized kernels (multikernel) vs shared \
       native vs kvm-64 on the same fs-restricted workload"
      Specialize.columns Specialize.pp Specialize.run;
    Tenancy.study ();
  ]
