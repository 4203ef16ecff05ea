module Prng = Ksurf_util.Prng
module Spec = Ksurf_syscalls.Spec
module Arg = Ksurf_syscalls.Arg
module Syscalls = Ksurf_syscalls.Syscalls

type flash = { from_ns : float; until_ns : float; boost : float }

type profile = {
  base_rate : float;
  amplitude : float;
  phase : float;
  flashes : flash list;
  mix : Spec.t array;
  key_space : int;
}

(* Tenant-to-tenant rate spread (+-60%), and up to two flash crowds of
   up to 6x per tenant. *)
let rate_spread = 0.6
let max_flashes = 2
let max_flash_boost = 6.0

(* The service shape: an RPC handler doing file I/O, metadata lookups
   and socket traffic — File_io / Fs_mgmt / Ipc categories only, which
   is what makes a kspec-pruned per-tenant kernel meaningfully smaller
   (no scheduler tick, balancer, reclaim or shootdown machinery). *)
let service_mix =
  let names =
    [ "read"; "write"; "openat"; "close"; "fstat"; "stat"; "sendto"; "recvfrom" ]
  in
  Array.of_list
    (List.map
       (fun n ->
         match Syscalls.by_name n with
         | Some s -> s
         | None -> invalid_arg ("Workload.service_mix: unknown syscall " ^ n))
       names)

let make ~rng ~day_ns ~horizon_ns ~mean_rate_per_s =
  let spread = 1.0 +. (rate_spread *. ((2.0 *. Prng.uniform rng) -. 1.0)) in
  let base_rate = mean_rate_per_s *. spread /. 1e9 in
  let amplitude = 0.3 +. (0.5 *. Prng.uniform rng) in
  let phase = Prng.uniform rng in
  let n_flashes = Prng.int rng (max_flashes + 1) in
  let flashes =
    List.init n_flashes (fun _ ->
        let from_ns = Prng.float rng horizon_ns in
        let dur = (0.02 +. (0.05 *. Prng.uniform rng)) *. day_ns in
        let boost = 1.5 +. Prng.float rng (max_flash_boost -. 1.5) in
        { from_ns; until_ns = from_ns +. dur; boost })
  in
  { base_rate; amplitude; phase; flashes; mix = service_mix; key_space = 64 }

let two_pi = 2.0 *. Float.pi

(* [next_gap] runs before every client request and allocates only its
   result: [rate_at] is inlined, so no float it computes is boxed, the
   flash product is a loop over the list in its order rather than a
   fold closure, and the uniform is drawn as [Prng.bits53] (the same
   value as [Prng.uniform], but an int crosses the module boundary
   unboxed). *)
let[@inline] rate_at p ~day_ns t =
  let diurnal =
    1.0 +. (p.amplitude *. sin (two_pi *. ((t /. day_ns) +. p.phase)))
  in
  let flash = ref 1.0 and rest = ref p.flashes in
  while !rest != [] do
    match !rest with
    | [] -> ()
    | f :: tl ->
        if t >= f.from_ns && t < f.until_ns then flash := !flash *. f.boost;
        rest := tl
  done;
  Float.max (0.05 *. p.base_rate) (p.base_rate *. diurnal *. !flash)

let next_gap p ~day_ns rng ~now =
  let rate = rate_at p ~day_ns now in
  let u = float_of_int (Prng.bits53 rng) *. (1.0 /. 9007199254740992.0) in
  -.Float.log (1.0 -. u) /. rate

let pick_request p rng =
  let spec = Prng.pick rng p.mix in
  let arg = Arg.generate spec.Spec.arg_model rng in
  let key = Prng.int rng p.key_space in
  (spec, arg, key)
