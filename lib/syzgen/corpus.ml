module Category = Ksurf_kernel.Category
module Spec = Ksurf_syscalls.Spec

type t = { programs : Program.t array }

let of_programs = function
  | [] -> invalid_arg "Corpus.of_programs: empty"
  | progs -> { programs = Array.of_list progs }

let programs t = t.programs
let program_count t = Array.length t.programs

let total_calls t =
  Array.fold_left (fun acc p -> acc + Program.length p) 0 t.programs

let coverage t =
  Array.fold_left
    (fun acc p -> Coverage.Set.union acc (Coverage.of_program p))
    Coverage.Set.empty t.programs

let unique_syscalls t =
  Array.fold_left
    (fun acc (p : Program.t) ->
      List.fold_left
        (fun acc (c : Program.call) -> c.Program.spec.Spec.name :: acc)
        acc p.Program.calls)
    [] t.programs
  |> List.sort_uniq String.compare

let category_histogram t =
  let counts = Array.make (List.length Category.all) 0 in
  Array.iter
    (fun (p : Program.t) ->
      List.iter
        (fun (c : Program.call) ->
          List.iter
            (fun cat ->
              let i = Category.index cat in
              counts.(i) <- counts.(i) + 1)
            c.Program.spec.Spec.categories)
        p.Program.calls)
    t.programs;
  List.map (fun cat -> (cat, counts.(Category.index cat))) Category.all

let separator = "%"

let to_string t =
  Array.to_list t.programs
  |> List.map Program.to_string
  |> String.concat (Printf.sprintf "\n%s\n" separator)

let of_string s =
  let chunks =
    String.split_on_char '\n' s
    |> List.fold_left
         (fun (chunks, cur) line ->
           if String.trim line = separator then (List.rev cur :: chunks, [])
           else (chunks, line :: cur))
         ([], [])
    |> fun (chunks, cur) -> List.rev (List.rev cur :: chunks)
  in
  let rec build id acc = function
    | [] -> Ok (List.rev acc)
    | chunk :: rest -> (
        let text = String.concat "\n" chunk in
        if String.trim text = "" then build id acc rest
        else
          match Program.of_string ~id text with
          | Ok p -> build (id + 1) (p :: acc) rest
          | Error e -> Error (Printf.sprintf "program %d: %s" id e))
  in
  match build 0 [] chunks with
  | Ok [] -> Error "empty corpus"
  | Ok progs -> Ok (of_programs progs)
  | Error _ as e -> e

let save t path =
  Ksurf_util.Fileio.write_atomic ~path (fun oc ->
      output_string oc (to_string t ^ "\n"))

let load path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let len = in_channel_length ic in
          let content = really_input_string ic len in
          of_string content)

let pp_stats ppf t =
  Format.fprintf ppf
    "@[<v>programs: %d@,call sites: %d@,unique syscalls: %d@,blocks covered: %d@,"
    (program_count t) (total_calls t)
    (List.length (unique_syscalls t))
    (Coverage.Set.cardinal (coverage t));
  List.iter
    (fun (cat, n) -> Format.fprintf ppf "  %-8s: %d call sites@," (Category.to_string cat) n)
    (category_histogram t);
  Format.fprintf ppf "@]"
