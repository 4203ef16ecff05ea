module Engine = Ksurf_sim.Engine
module Env = Ksurf_env.Env
module Program = Ksurf_syzgen.Program
module Corpus = Ksurf_syzgen.Corpus

(* A program's calls in order, as a direct recursion: a [List.iter]
   closure would be built on every program run. *)
let rec issue_all counters env rank = function
  | [] -> ()
  | c :: rest ->
      ignore (Retry.call counters env ~rank c : bool);
      issue_all counters env rank rest

let start ~env ~corpus ~ranks () =
  let engine = Env.engine env in
  let programs = Corpus.programs corpus in
  let counters = Retry.counters () in
  List.iter
    (fun rank ->
      if rank < 0 || rank >= Env.rank_count env then
        invalid_arg (Printf.sprintf "Noise.start: rank %d out of range" rank);
      Engine.spawn engine (fun () ->
          (* Offset start positions so noise ranks are not in lock-step. *)
          let start_at = rank mod Array.length programs in
          let rec loop pi =
            issue_all counters env rank programs.(pi).Program.calls;
            loop ((pi + 1) mod Array.length programs)
          in
          loop start_at))
    ranks;
  counters
