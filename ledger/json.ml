(* The little JSON the ledger reads and writes: its own result lines,
   BENCH_ledger.json and the bounds in BENCHMARK.json.  The repo has no
   JSON library, and these documents need nothing beyond this. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Every digit a float carries: a measured time must not be rounded
   into something that repeats from run to run. *)
let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* [indent] < 0 prints everything on one line (result lines); otherwise
   objects and arrays nest by that many spaces per level. *)
let to_string ?(indent = -1) v =
  let b = Buffer.create 1024 in
  let nl depth =
    if indent >= 0 then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (indent * depth) ' ')
    end
  in
  let sep () = Buffer.add_string b (if indent >= 0 then "," else ", ") in
  let rec go depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num x -> Buffer.add_string b (number x)
    | Str s -> Buffer.add_string b (quote s)
    | Arr [] -> Buffer.add_string b "[]"
    | Obj [] -> Buffer.add_string b "{}"
    | Arr l ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then sep ();
            nl (depth + 1);
            go (depth + 1) x)
          l;
        nl depth;
        Buffer.add_char b ']'
    | Obj l ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then sep ();
            nl (depth + 1);
            Buffer.add_string b (quote k);
            Buffer.add_string b ": ";
            go (depth + 1) x)
          l;
        nl depth;
        Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.contents b

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what =
    raise (Parse_error (Printf.sprintf "%s at byte %d" what !pos))
  in
  let rec skip () =
    if !pos < n && String.contains " \t\r\n" s.[!pos] then begin
      incr pos;
      skip ()
    end
  in
  let expect c =
    skip ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "short \\u escape";
              let code =
                match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
                | Some c -> c
                | None -> fail "bad \\u escape"
              in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_char b '?'
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let number_lit () =
    let start = !pos in
    while !pos < n && String.contains "+-0123456789.eE" s.[!pos] do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> Num x
    | None -> fail "bad number"
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        skip ();
        if !pos < n && s.[!pos] = '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec fields acc =
            let k = string_lit () in
            expect ':';
            let v = value () in
            skip ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              fields ((k, v) :: acc)
            end
            else begin
              expect '}';
              Obj (List.rev ((k, v) :: acc))
            end
          in
          fields []
    | '[' ->
        incr pos;
        skip ();
        if !pos < n && s.[!pos] = ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec items acc =
            let v = value () in
            skip ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              items (v :: acc)
            end
            else begin
              expect ']';
              Arr (List.rev (v :: acc))
            end
          in
          items []
    | '"' -> Str (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number_lit ()
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing data";
  v

let of_string s = try Ok (parse s) with Parse_error e -> Error e

let member k = function Obj l -> List.assoc_opt k l | _ -> None

let path keys v =
  List.fold_left (fun acc k -> Option.bind acc (member k)) (Some v) keys

let to_float = function Some (Num x) -> Some x | _ -> None
let to_str = function Some (Str s) -> Some s | _ -> None
let to_list = function Some (Arr l) -> l | _ -> []
let to_assoc = function Some (Obj l) -> l | _ -> []

let read_file file =
  match Ksurf.Fileio.read_lines file with
  | lines -> of_string (String.concat "\n" lines)
  | exception Ksurf.Fileio.Io_error e -> Error e

let write_file file v =
  Ksurf.Fileio.write_atomic ~path:file (fun oc ->
      output_string oc (to_string ~indent:2 v);
      output_char oc '\n')
