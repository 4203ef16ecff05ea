module Prng = Ksurf_util.Prng

type params = { seed : int; target_programs : int; target_calls : int option }

let default_params = { seed = 42; target_programs = 64; target_calls = None }

(* The bound on candidate evaluations; fresh programs' lengths; and the
   chance a candidate mutates a corpus member rather than being fresh,
   once the corpus is non-empty. *)
let max_rounds = 20_000
let min_len = 3
let max_len = 10
let mutation_bias = 0.7

type report = {
  corpus : Corpus.t;
  rounds : int;
  admitted : int;
  coverage_blocks : int;
  coverage_fraction : float;
}

let minimise ~against (p : Program.t) =
  (* Greedy backwards pass: drop a call if the program's coverage beyond
     [against] is unchanged without it.  Backwards so that edge blocks
     of earlier pairs are preserved while later redundancy goes. *)
  let contribution calls =
    let prog = { Program.id = p.Program.id; calls } in
    Coverage.Set.diff_cardinal (Coverage.of_program prog) against
  in
  let full = contribution p.Program.calls in
  let rec drop_pass calls i =
    if i < 0 then calls
    else begin
      let without = List.filteri (fun j _ -> j <> i) calls in
      if without <> [] && contribution without = full then drop_pass without (i - 1)
      else drop_pass calls (i - 1)
    end
  in
  let calls = drop_pass p.Program.calls (List.length p.Program.calls - 1) in
  { Program.id = p.Program.id; calls }

let run ?(params = default_params) () =
  let rng = Prng.create params.seed in
  let corpus_rev = ref [] in
  let corpus_len = ref 0 in
  let covered = ref Coverage.Set.empty in
  let rounds = ref 0 in
  let admitted = ref 0 in
  let next_id = ref 0 in
  let fresh_id () =
    let id = !next_id in
    incr next_id;
    id
  in
  let corpus_pick () =
    match !corpus_rev with
    | [] -> None
    | l -> Some (List.nth l (Prng.int rng (List.length l)))
  in
  let candidate () =
    let mutate_existing =
      !corpus_rev <> [] && Prng.chance rng mutation_bias
    in
    if mutate_existing then begin
      match corpus_pick () with
      | Some base -> Mutate.mutate rng ~corpus_pick ~id:(fresh_id ()) base
      | None -> assert false
    end
    else
      Program.random rng ~id:(fresh_id ()) ~min_len ~max_len
  in
  while !corpus_len < params.target_programs && !rounds < max_rounds do
    incr rounds;
    let cand = candidate () in
    let cov = Coverage.of_program cand in
    if Coverage.Set.diff_cardinal cov !covered > 0 then begin
      let cand = minimise ~against:!covered cand in
      corpus_rev := cand :: !corpus_rev;
      incr corpus_len;
      incr admitted;
      covered := Coverage.Set.union !covered (Coverage.of_program cand)
    end
  done;
  (* Paper-scale growth: once admission is done, extend with mutants of
     admitted programs (coverage preserved by construction — supersets
     only grow coverage, and mutation keeps members too). *)
  (match params.target_calls with
  | None -> ()
  | Some target ->
      let calls_of l =
        List.fold_left (fun acc p -> acc + Program.length p) 0 l
      in
      while calls_of !corpus_rev < target && !next_id < 10 * target do
        match corpus_pick () with
        | None -> next_id := 10 * target (* cannot grow an empty corpus *)
        | Some base ->
            let mutant = Mutate.mutate rng ~corpus_pick ~id:(fresh_id ()) base in
            corpus_rev := mutant :: !corpus_rev;
            incr corpus_len;
            covered := Coverage.Set.union !covered (Coverage.of_program mutant)
      done);
  let corpus = Corpus.of_programs (List.rev !corpus_rev) in
  let blocks = Coverage.Set.cardinal !covered in
  {
    corpus;
    rounds = !rounds;
    admitted = !admitted;
    coverage_blocks = blocks;
    coverage_fraction =
      float_of_int blocks /. float_of_int (max 1 (Coverage.universe_estimate ()));
  }
