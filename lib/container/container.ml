module Instance = Ksurf_kernel.Instance

type shape = { cpus : int; mem_limit_mb : int }

type t = {
  id : int;
  shape : shape;
  cgroup : int;
  host : Instance.t;
  (* Per-call constants, computed at launch rather than on every
     syscall: the entry path's cost and the context's cgroup. *)
  entry_cost : float;
  in_cgroup : int option;
}

let namespace_cost = 35.0

let launch ~host ~id shape =
  if shape.cpus < 1 then invalid_arg "Container.launch: cpus must be >= 1";
  let cgroup = Instance.register_cgroup host in
  let cfg = Instance.config host in
  {
    id;
    shape;
    cgroup;
    host;
    entry_cost = cfg.Ksurf_kernel.Config.syscall_entry_cost +. namespace_cost;
    in_cgroup = Some cgroup;
  }

let id t = t.id
let shape t = t.shape
let cgroup t = t.cgroup
let host t = t.host

let exec_syscall t ~core ~tenant ~key ops =
  let ctx = { Instance.core; tenant; key; cgroup = t.in_cgroup } in
  Instance.burn t.host t.entry_cost;
  (* Every containerised call passes resource accounting (cpuacct on
     entry, memcg on any allocation) before its own ops run. *)
  Instance.exec_op t.host ctx Ksurf_kernel.Ops.Cgroup_charge;
  Instance.exec_program t.host ctx ops
