(* Driver for the static analysis pass: ties footprints, the
   lock-order graph, the interference matrix and allowlist
   verification together for the CLI and `make staticcheck`.

   Everything here is computed from the syscall table alone — no
   engine, no instances, no sampling.  The dynamic side of each claim
   is checked against this one by test/test_staticcheck.ml. *)

module Category = Ksurf_kernel.Category
module Config = Ksurf_kernel.Config
module Ops = Ksurf_kernel.Ops
module Spec = Ksurf_syscalls.Spec
module Finding = Ksurf_analysis.Finding
module Profile = Ksurf_spec.Profile
module Kspec = Ksurf_spec.Spec
module Coverage = Ksurf_syzgen.Coverage
module Csv = Ksurf_report.Csv

(* --- static reachability ---------------------------------------------- *)

(* Mirrors Profile.restrict: a call is reachable under a category
   subset when ALL of its categories are kept (restrict drops any call
   with a category outside [keep], so a multi-category call needs every
   one of them). *)
let reachable_names ?(keep = Category.all) () =
  Array.to_list Ksurf_syscalls.Syscalls.all
  |> List.filter_map (fun (spec : Spec.t) ->
         if
           List.for_all
             (fun c -> List.exists (Category.equal c) keep)
             spec.Spec.categories
         then Some spec.Spec.name
         else None)
  |> List.sort String.compare

let static_surface ~allowlist =
  Ksurf_spec.Specializer.reachable_fraction ~allowlist

let dynamic_surface (profile : Profile.t) =
  float_of_int (Coverage.Set.cardinal profile.Profile.coverage)
  /. float_of_int (Coverage.Set.cardinal (Coverage.universe ()))

(* --- allowlist verification (kspec) ------------------------------------ *)

type spec_report = {
  workload : string;
  keep : Category.t list;
  reachable : string list;  (** statically reachable under [keep] *)
  allowlist : string list;
  gaps : string list;  (** reachable but not allowed: ENOSYS hazards *)
  slack : string list;  (** allowed but statically unreachable *)
  findings : Finding.t list;
  static_surface : float;  (** reachable fraction through the allowlist *)
  dynamic_surface : float;  (** fraction the profile actually covered *)
}

let cats_str keep = String.concat "+" (List.map Category.to_string keep)

(* Machinery hazards: an allowed call whose footprint needs machinery
   the given (pruned) kernel config switches off.  Config-driven on
   purpose — the stock table legitimately contains Perm-only calls
   that take the journal lock, so category/machinery mismatch is not a
   table error; it only becomes one when a specific deployment prunes
   the machinery an allowed call depends on. *)
let machinery_findings ~(config : Config.t) fps allowlist =
  List.concat_map
    (fun name ->
      match Footprint.find fps name with
      | None -> []
      | Some fp ->
          let need = [] in
          let need =
            if
              List.mem Ops.Journal fp.Footprint.locks
              && not
                   (config.Config.enable_background
                   && config.Config.enable_journal_daemon)
            then
              ( "journal-daemon",
                Printf.sprintf
                  "%s dirties the journal but the journal commit daemon is \
                   pruned"
                  name )
              :: need
            else need
          in
          let need =
            if fp.Footprint.ipi && not config.Config.enable_tlb_shootdown
            then
              ( "tlb-shootdown",
                Printf.sprintf
                  "%s broadcasts TLB-shootdown IPIs but shootdowns are pruned"
                  name )
              :: need
            else need
          in
          let need =
            if
              List.mem Ops.Cgroup_css fp.Footprint.locks
              && not config.Config.enable_cgroup_accounting
            then
              ( "cgroup-accounting",
                Printf.sprintf
                  "%s charges the cgroup controller but accounting is pruned"
                  name )
              :: need
            else need
          in
          List.rev_map
            (fun (what, msg) ->
              Finding.make ~severity:Finding.Error ~check:"staticcheck"
                ~code:"machinery-pruned" ~message:msg
                ~witness:[ Printf.sprintf "machinery: %s" what ]
                ())
            need)
    allowlist

let verify ~workload ~keep ~(profile : Profile.t) ~(spec : Kspec.t)
    ~(config : Config.t) () =
  let reachable = reachable_names ~keep () in
  let allowlist = List.sort String.compare spec.Kspec.allowlist in
  (* Gap: the corpus demonstrably issues the call, the allowlist
     denies it.  Corpus-reachable, not category-reachable — an exact
     profile-derived allowlist must certify clean even when the corpus
     did not cover its whole category universe. *)
  let gaps =
    List.filter
      (fun n -> not (List.mem n allowlist))
      profile.Profile.syscalls
  in
  let slack =
    List.filter (fun n -> not (List.mem n reachable)) allowlist
  in
  let fps = Footprint.all () in
  let gap_findings =
    List.map
      (fun n ->
        let severity, hazard =
          match spec.Kspec.mode with
          | Kspec.Enforce -> (Finding.Error, "denied with ENOSYS")
          | Kspec.Audit -> (Finding.Warning, "would be denied under Enforce")
        in
        Finding.make ~severity ~check:"staticcheck" ~code:"allowlist-gap"
          ~message:
            (Printf.sprintf
               "allowlist gap: the %s corpus issues %s but the allowlist \
                denies it (%s)"
               workload n hazard)
          ~witness:
            [
              Printf.sprintf "workload %s, profile %s, mode %s" workload
                profile.Profile.name
                (Kspec.mode_to_string spec.Kspec.mode);
            ]
          ())
      gaps
  in
  let slack_findings =
    List.map
      (fun n ->
        Finding.make ~severity:Finding.Warning ~check:"staticcheck"
          ~code:"allowlist-slack"
          ~message:
            (Printf.sprintf
               "allowlist slack: %s is allowed but not statically reachable \
                under [%s]"
               n (cats_str keep))
          ~witness:
            [ Printf.sprintf "workload %s, profile %s" workload
                profile.Profile.name ]
          ())
      slack
  in
  {
    workload;
    keep;
    reachable;
    allowlist;
    gaps;
    slack;
    findings =
      Finding.sort
        (gap_findings @ slack_findings
        @ machinery_findings ~config fps allowlist);
    static_surface = static_surface ~allowlist;
    dynamic_surface = dynamic_surface profile;
  }

let pp_spec_report ppf r =
  Format.fprintf ppf
    "@[<v>allowlist verification: workload %s (categories [%s])@,\
    \  statically reachable %d calls, allowed %d calls@,\
    \  gaps %d, slack %d@,\
    \  surface area: static %.4f, dynamic %.4f@,"
    r.workload (cats_str r.keep)
    (List.length r.reachable)
    (List.length r.allowlist)
    (List.length r.gaps) (List.length r.slack) r.static_surface
    r.dynamic_surface;
  List.iter (fun f -> Format.fprintf ppf "  %a@," Finding.pp f) r.findings;
  Format.fprintf ppf "@]"

(* --- whole-table entry points ------------------------------------------ *)

let export_csv ~dir () =
  let fps = Footprint.all () in
  let graph = Lockgraph.of_table () in
  let matrix = Interference.of_table () in
  let write name header rows =
    let path = Filename.concat dir name in
    Csv.write ~path ~header ~rows;
    path
  in
  [
    write "static_footprints.csv" Footprint.csv_header
      (Footprint.csv_rows fps);
    write "static_lock_graph.csv" Lockgraph.csv_header
      (Lockgraph.csv_rows graph);
    write "static_interference.csv" Interference.csv_header
      (Interference.csv_rows matrix);
  ]
