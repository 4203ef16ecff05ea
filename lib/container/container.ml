module Instance = Ksurf_kernel.Instance

type t = {
  cgroup : int;
  host : Instance.t;
  (* Per-call constants, computed at launch rather than on every
     syscall: the entry path's cost and the context's cgroup. *)
  entry_cost : float;
  in_cgroup : int option;
}

let namespace_cost = 35.0

let launch ~host ~cgroup =
  let cfg = Instance.config host in
  {
    cgroup;
    host;
    entry_cost = cfg.Ksurf_kernel.Config.syscall_entry_cost +. namespace_cost;
    in_cgroup = Some cgroup;
  }

let cgroup t = t.cgroup
let host t = t.host

let context t ~core ~tenant ~key = { Instance.core; tenant; key; cgroup = t.in_cgroup }

let exec_syscall t ctx ops =
  Instance.burn t.host t.entry_cost;
  (* Every containerised call passes resource accounting (cpuacct on
     entry, memcg on any allocation) before its own ops run. *)
  Instance.exec_op t.host ctx Ksurf_kernel.Ops.Cgroup_charge;
  Instance.exec_program t.host ctx ops
