module Engine = Ksurf_sim.Engine
module Env = Ksurf_env.Env
module Program = Ksurf_syzgen.Program

type counters = {
  mutable issued : int;
  mutable retries : int;
  mutable abandoned : int;
  mutable denied : int;
}

let counters () = { issued = 0; retries = 0; abandoned = 0; denied = 0 }

let backoff_base_ns = 1_000.0
let backoff_cap_ns = 256_000.0
let max_retries = 10

(* One attempt per recursion, with everything it reads as an argument:
   a local [go] over the rank and the call would be a closure per
   call. *)
let rec attempt counters env rank (c : Program.call) n =
  match Env.try_syscall env ~rank c.Program.spec c.Program.arg with
  | Env.Completed ->
      counters.issued <- counters.issued + 1;
      true
  | Env.Denied ->
      (* ENOSYS from a specialization policy: permanent, so no retry
         and no sample — the call never did its work. *)
      counters.denied <- counters.denied + 1;
      false
  | Env.Faulted _ ->
      counters.retries <- counters.retries + 1;
      if n >= max_retries then begin
        counters.abandoned <- counters.abandoned + 1;
        false
      end
      else begin
        (* The backoff goes through the engine's delay cell, so its
           duration is never boxed. *)
        let engine = Env.engine env in
        (Engine.delay_cell engine).(0) <-
          Float.min backoff_cap_ns (backoff_base_ns *. Float.pow 2.0 (float_of_int n));
        Engine.delay_from_cell engine;
        attempt counters env rank c (n + 1)
      end

let call counters env ~rank c = attempt counters env rank c 0
