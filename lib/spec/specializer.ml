module Category = Ksurf_kernel.Category
module Ops = Ksurf_kernel.Ops
module Config = Ksurf_kernel.Config
module Instance = Ksurf_kernel.Instance
module Syscalls = Ksurf_syscalls.Syscalls
module Coverage = Ksurf_syzgen.Coverage
module Env = Ksurf_env.Env

let reachable_fraction ~allowlist =
  let reachable =
    List.fold_left
      (fun acc name ->
        match Syscalls.by_name name with
        | Some spec -> Coverage.Set.union acc (Coverage.universe_of_call spec)
        | None -> acc)
      Coverage.Set.empty allowlist
  in
  float_of_int (Coverage.Set.cardinal reachable)
  /. float_of_int (Coverage.Set.cardinal (Coverage.universe ()))

let compile ?(mode = Spec.Enforce) (p : Profile.t) =
  if p.Profile.syscalls = [] then
    invalid_arg "Specializer.compile: profile allows no syscalls";
  let retained =
    List.filter
      (fun cat ->
        List.exists
          (fun name ->
            match Syscalls.by_name name with
            | Some spec -> Ksurf_syscalls.Spec.in_category spec cat
            | None -> false)
          p.Profile.syscalls)
      Category.all
  in
  {
    Spec.profile_name = p.Profile.name;
    allowlist = List.sort_uniq String.compare p.Profile.syscalls;
    retained;
    mode;
    reachable = reachable_fraction ~allowlist:p.Profile.syscalls;
  }

let pruned_machinery (s : Spec.t) =
  let needed =
    List.concat_map Ops.machinery_of_category s.Spec.retained
  in
  List.filter (fun m -> not (List.mem m needed)) Ops.all_machinery

let kernel_config s =
  List.fold_left (fun cfg m -> Config.without_machinery m cfg) Config.default
    (pruned_machinery s)

let policy (s : Spec.t) =
  let allowed = Hashtbl.create (List.length s.Spec.allowlist) in
  List.iter (fun n -> Hashtbl.replace allowed n ()) s.Spec.allowlist;
  {
    Instance.allows = (fun name -> Hashtbl.mem allowed name);
    policy_mode =
      (match s.Spec.mode with
      | Spec.Audit -> Instance.Audit
      | Spec.Enforce -> Instance.Enforce);
    reachable = s.Spec.reachable;
    denials = ref 0;
  }

let install env ~rank (s : Spec.t) =
  Instance.set_syscall_policy
    (Env.instance_of_rank env rank)
    ~tenant:rank
    (Some (policy s))

let install_all env s =
  for rank = 0 to Env.rank_count env - 1 do
    install env ~rank s
  done

let denials env ~rank =
  match
    Instance.syscall_policy (Env.instance_of_rank env rank) ~tenant:rank
  with
  | Some p -> !(p.Instance.denials)
  | None -> 0
