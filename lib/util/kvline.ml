type kvs = (string * string) list

let ( let* ) = Result.bind

let split_words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let parse_kv word =
  match String.index_opt word '=' with
  | None -> Error (Printf.sprintf "expected key=value, got %S" word)
  | Some i ->
      Ok
        ( String.sub word 0 i,
          String.sub word (i + 1) (String.length word - i - 1) )

let kvs_of words =
  List.fold_left
    (fun acc w ->
      let* acc = acc in
      let* kv = parse_kv w in
      Ok (kv :: acc))
    (Ok []) words
  |> Result.map List.rev

let float_of name v =
  match float_of_string_opt v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s: not a number: %S" name v)

let int_of name v =
  match int_of_string_opt v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "%s: not an integer: %S" name v)

let find parse kvs key ~default =
  match List.assoc_opt key kvs with
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing %s=" key))
  | Some v -> parse key v

let find_float = find float_of
let find_int = find int_of

let parse ~action s =
  let rec go name actions = function
    | [] -> Ok (name, List.rev actions)
    | line :: rest -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go name actions rest
        else
          match split_words line with
          | [] -> go name actions rest
          | "name" :: n :: _ -> go n actions rest
          | keyword :: words -> (
              match
                let* kvs = kvs_of words in
                action keyword kvs
              with
              | Error e -> Error (Printf.sprintf "%S: %s" line e)
              | Ok a -> go name (a :: actions) rest))
  in
  go "unnamed" [] (String.split_on_char '\n' s)
