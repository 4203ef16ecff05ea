module Spec = Ksurf_syscalls.Spec
module Arg = Ksurf_syscalls.Arg
module Syscalls = Ksurf_syscalls.Syscalls
module Prng = Ksurf_util.Prng

type call = { spec : Spec.t; arg : Arg.t }
type t = { id : int; calls : call list }

let length t = List.length t.calls

let call_site t i =
  match List.nth_opt t.calls i with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Program.call_site: index %d" i)

let random_call rng =
  let spec = Prng.pick rng Syscalls.all in
  { spec; arg = Arg.generate spec.Spec.arg_model rng }

let random rng ~id ~min_len ~max_len =
  if min_len < 1 || max_len < min_len then invalid_arg "Program.random: bad lengths";
  let len = min_len + Prng.int rng (max_len - min_len + 1) in
  { id; calls = List.init len (fun _ -> random_call rng) }

let to_string t =
  String.concat "\n"
    (List.map
       (fun c -> Printf.sprintf "%s(%s)" c.spec.Spec.name (Arg.to_string c.arg))
       t.calls)

(* A call is the whole line: its ')' must be the last character. *)
let parse_line line =
  let n = String.length line in
  match String.index_opt line '(' with
  | None -> Error (Printf.sprintf "missing '(' in %S" line)
  | Some _ when line.[n - 1] <> ')' ->
      Error (Printf.sprintf "line does not end with the call's ')' in %S" line)
  | Some open_paren -> (
      let name = String.sub line 0 open_paren in
      let args = String.sub line (open_paren + 1) (n - open_paren - 2) in
      match Syscalls.by_name name with
      | None -> Error (Printf.sprintf "unknown syscall %S" name)
      | Some spec -> (
          match Arg.of_string args with
          | None -> Error (Printf.sprintf "bad arguments %S" args)
          | Some arg -> Ok { spec; arg }))

let of_string ~id s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  let rec build acc = function
    | [] -> Ok { id; calls = List.rev acc }
    | line :: rest -> (
        match parse_line line with
        | Ok call -> build (call :: acc) rest
        | Error _ as e -> e)
  in
  match build [] lines with
  | Ok t when t.calls = [] -> Error "empty program"
  | result -> result

let equal a b =
  List.length a.calls = List.length b.calls
  && List.for_all2
       (fun x y -> x.spec.Spec.name = y.spec.Spec.name && Arg.equal x.arg y.arg)
       a.calls b.calls
