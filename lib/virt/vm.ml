module Engine = Ksurf_sim.Engine
module Instance = Ksurf_kernel.Instance
module Prng = Ksurf_util.Prng

type shape = { vcpus : int; mem_mb : int }

type t = {
  shape : shape;
  virt : Virt_config.t;
  guest : Instance.t;
  rng : Prng.t;
  (* [exits_per_syscall] split at boot into its whole part and the
     fractional expectation realised per call as a Bernoulli draw. *)
  whole_exits : int;
  frac_exit : float;
}

let boot ~engine ?host_block ?(kernel_config = Ksurf_kernel.Config.default)
    ?(virt = Virt_config.default) ~id shape =
  if shape.vcpus < 1 then invalid_arg "Vm.boot: vcpus must be >= 1";
  let guest_config = Virt_config.derive_kernel_config virt kernel_config in
  let guest =
    Ksurf_kernel.Kernel.boot ~engine ~config:guest_config ~id:(1000 + id)
      ~cores:shape.vcpus ~mem_mb:shape.mem_mb ?block_dev:host_block ()
  in
  let rng = Prng.split (Engine.rng engine) ("vm-" ^ string_of_int id) in
  let whole_exits = int_of_float virt.Virt_config.exits_per_syscall in
  let frac_exit = virt.Virt_config.exits_per_syscall -. float_of_int whole_exits in
  { shape; virt; guest; rng; whole_exits; frac_exit }

let guest t = t.guest
let shutdown t = Instance.halt t.guest

let exec_syscall t (ctx : Instance.ctx) ops =
  if ctx.Instance.core < 0 || ctx.Instance.core >= t.shape.vcpus then
    invalid_arg (Printf.sprintf "Vm.exec_syscall: vCPU %d out of range" ctx.Instance.core);
  let cfg = Instance.config t.guest in
  Instance.burn t.guest cfg.Ksurf_kernel.Config.syscall_entry_cost;
  (* Virtualisation overhead: the expected involuntary exits per call,
     bounded per call, plus a rare slow exit.  Computed in the engine's
     delay cell, the slow exit's cost drawn straight into it, so the
     overhead is never a boxed float. *)
  let v = t.virt in
  let exits = t.whole_exits + if Prng.chance t.rng t.frac_exit then 1 else 0 in
  let fast = float_of_int exits *. v.Virt_config.exit_cost in
  let engine = Instance.engine t.guest in
  let cell = Engine.delay_cell engine in
  if exits > 0 && Prng.chance t.rng v.Virt_config.exit_slow_prob then begin
    Ksurf_util.Dist.sample_into v.Virt_config.exit_slow_cost t.rng cell;
    cell.(0) <- fast +. cell.(0)
  end
  else cell.(0) <- fast;
  if cell.(0) > 0.0 then Engine.delay_from_cell engine;
  Instance.exec_program t.guest ctx ops
