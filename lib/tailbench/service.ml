module Engine = Ksurf_sim.Engine
module Env = Ksurf_env.Env
module Dist = Ksurf_util.Dist
module Prng = Ksurf_util.Prng
module Spec = Ksurf_syscalls.Spec
module Arg = Ksurf_syscalls.Arg
module Syscalls = Ksurf_syscalls.Syscalls

type weighted_call = { cumulative : float; spec : Spec.t }

type compiled = {
  app : Apps.t;
  calls : weighted_call array;  (** mix with cumulative weights *)
  io : (Spec.t * int) list;  (** each I/O call with its size *)
  recv : Spec.t;
  send : Spec.t;
}

(* The size of a request's loopback receive and of its reply. *)
let net_size = 512

(* [issue] moves every object into [0, obj_space). *)
let obj_space = 64

let resolve name =
  match Syscalls.by_name name with
  | Some spec -> spec
  | None -> invalid_arg (Printf.sprintf "Service.compile: unknown syscall %s" name)

(* [name] memoised over every argument [handle] can issue to it: the
   model's sizes and each size [handle] puts in their place, any object
   in [0, obj_space), the model's flags. *)
let covered (app : Apps.t) name =
  let spec = resolve name in
  let model = spec.Spec.arg_model in
  let overrides =
    List.filter_map
      (fun (call, size) -> if call = name then Some size else None)
      (("recvfrom", net_size) :: ("sendto", net_size) :: app.Apps.io_calls)
  in
  let sizes = List.sort_uniq Int.compare (Array.to_list model.Arg.sizes @ overrides) in
  Spec.covering spec { model with Arg.sizes = Array.of_list sizes; max_obj = obj_space }

let compile (app : Apps.t) =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 app.Apps.mix in
  if total <= 0.0 then invalid_arg "Service.compile: empty mix";
  (* One covered spec per name, so a call in both the mix and the I/O
     list shares one memo. *)
  let specs = Hashtbl.create 16 in
  let spec name =
    match Hashtbl.find_opt specs name with
    | Some spec -> spec
    | None ->
        let spec = covered app name in
        Hashtbl.add specs name spec;
        spec
  in
  let acc = ref 0.0 in
  let calls =
    List.map
      (fun (w, name) ->
        acc := !acc +. (w /. total);
        { cumulative = !acc; spec = spec name })
      app.Apps.mix
    |> Array.of_list
  in
  calls.(Array.length calls - 1) <- { (calls.(Array.length calls - 1)) with cumulative = 1.0 };
  let io = List.map (fun (name, size) -> (spec name, size)) app.Apps.io_calls in
  { app; calls; io; recv = spec "recvfrom"; send = spec "sendto" }

let app t = t.app

let specs t =
  List.sort_uniq
    (fun (a : Spec.t) (b : Spec.t) -> String.compare a.Spec.name b.Spec.name)
    ((t.recv :: t.send :: List.map fst t.io) @ Array.to_list (Array.map (fun c -> c.spec) t.calls))

let rec find_call calls u i =
  if i >= Array.length calls - 1 || u < calls.(i).cumulative then calls.(i).spec
  else find_call calls u (i + 1)

let pick_call t rng = find_call t.calls (Prng.uniform rng) 0

(* [issue]'s size when the call keeps the size it draws. *)
let drawn_size = -1

(* One kernel call of a request on [rank], with an argument drawn from
   the call's model; a [size] other than [drawn_size] replaces the
   drawn one.  Each worker gets its own object neighbourhood, so app
   file/futex objects are distinct from the noise generators'. *)
let issue env ~rank rng (spec : Spec.t) size =
  (* [Arg.generate]'s three draws, in its order, without its record. *)
  let model = spec.Spec.arg_model in
  let flags = Prng.int rng model.Arg.max_flags in
  let obj = Prng.int rng model.Arg.max_obj in
  let drawn = Prng.pick rng model.Arg.sizes in
  Env.exec_syscall env ~rank spec
    {
      Arg.size = (if size = drawn_size then drawn else size);
      obj = (obj + (rank * 3)) mod obj_space;
      flags;
    }

let rec issue_io env ~rank rng = function
  | [] -> ()
  | (spec, size) :: rest ->
      issue env ~rank rng spec size;
      issue_io env ~rank rng rest

let softnet_delay = Dist.lognormal ~median:25_000.0 ~sigma:0.9

let handle t ~env ~rank ~rng ?(hw_dilation = 1.0) () =
  let app = t.app in
  let penalty =
    match Env.kind env with
    | Env.Kvm _ -> app.Apps.virt_cpu_penalty
    | Env.Native | Env.Multikernel | Env.Docker -> 1.0
  in
  let cpu = Dist.sample app.Apps.service_cpu rng *. penalty *. hw_dilation in
  (* Loopback delivery rides the shared kernel's softirq processing:
     on a busy kernel the reply to the socket wait is delayed behind
     whatever net_rx work is queued.  Bounded inside a quiet guest. *)
  let softirq_delay =
    Env.busy_of_rank env rank *. Dist.sample softnet_delay rng
  in
  if softirq_delay > 0.0 then Engine.delay softirq_delay;
  issue env ~rank rng t.recv net_size;
  (* First half of the compute, then the kernel-call mix interleaved
     with the rest: requests alternate user and kernel time. *)
  Engine.delay (cpu *. 0.5);
  let n = app.Apps.calls_per_request in
  let per_gap = cpu *. 0.5 /. float_of_int (max 1 n) in
  for _ = 1 to n do
    issue env ~rank rng (pick_call t rng) drawn_size;
    Engine.delay per_gap
  done;
  issue_io env ~rank rng t.io;
  issue env ~rank rng t.send net_size

let estimate_native_service t = Apps.mean_service_estimate t.app
