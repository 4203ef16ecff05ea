module Prng = Ksurf_util.Prng
module Arg = Ksurf_syscalls.Arg
module Spec = Ksurf_syscalls.Spec
module Syscalls = Ksurf_syscalls.Syscalls

type op = Insert | Remove | Replace_arg | Splice | Swap

let all_ops = [ Insert; Remove; Replace_arg; Splice; Swap ]

let max_program_len = 16

let fresh_call rng =
  let spec = Prng.pick rng Syscalls.all in
  { Program.spec; arg = Arg.generate spec.Spec.arg_model rng }

let insert rng (p : Program.t) ~id =
  if List.length p.Program.calls >= max_program_len then { p with Program.id = id }
  else begin
    let pos = Prng.int rng (List.length p.Program.calls + 1) in
    let call = fresh_call rng in
    let calls =
      List.concat
        [
          List.filteri (fun i _ -> i < pos) p.Program.calls;
          [ call ];
          List.filteri (fun i _ -> i >= pos) p.Program.calls;
        ]
    in
    { Program.id; calls }
  end

let remove rng (p : Program.t) ~id =
  let n = List.length p.Program.calls in
  if n <= 1 then { p with Program.id = id }
  else begin
    let pos = Prng.int rng n in
    { Program.id; calls = List.filteri (fun i _ -> i <> pos) p.Program.calls }
  end

let replace_arg rng (p : Program.t) ~id =
  let n = List.length p.Program.calls in
  let pos = Prng.int rng n in
  let calls =
    List.mapi
      (fun i (c : Program.call) ->
        if i = pos then
          { c with Program.arg = Arg.generate c.Program.spec.Spec.arg_model rng }
        else c)
      p.Program.calls
  in
  { Program.id; calls }

let splice rng (p : Program.t) ~partner ~id =
  let cut a = List.filteri (fun i _ -> i < a) in
  let tail a l = List.filteri (fun i _ -> i >= a) l in
  let na = List.length p.Program.calls in
  let nb = List.length partner.Program.calls in
  let ca = Prng.int rng (na + 1) and cb = Prng.int rng (nb + 1) in
  let calls = cut ca p.Program.calls @ tail cb partner.Program.calls in
  let calls =
    if calls = [] then [ fresh_call rng ]
    else List.filteri (fun i _ -> i < max_program_len) calls
  in
  { Program.id; calls }

let swap rng (p : Program.t) ~id =
  let n = List.length p.Program.calls in
  if n < 2 then { p with Program.id = id }
  else begin
    let arr = Array.of_list p.Program.calls in
    let i = Prng.int rng n and j = Prng.int rng n in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp;
    { Program.id; calls = Array.to_list arr }
  end

let apply rng ~corpus_pick ~id op p =
  match op with
  | Insert -> insert rng p ~id
  | Remove -> remove rng p ~id
  | Replace_arg -> replace_arg rng p ~id
  | Swap -> swap rng p ~id
  | Splice -> (
      match corpus_pick () with
      | Some partner -> splice rng p ~partner ~id
      | None -> insert rng p ~id)

let mutate rng ~corpus_pick ~id p =
  let op = Prng.pick rng (Array.of_list all_ops) in
  apply rng ~corpus_pick ~id op p
