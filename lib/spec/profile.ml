module Category = Ksurf_kernel.Category
module Spec = Ksurf_syscalls.Spec
module Program = Ksurf_syzgen.Program
module Corpus = Ksurf_syzgen.Corpus
module Coverage = Ksurf_syzgen.Coverage

type t = {
  name : string;
  syscalls : string list;
  categories : (Category.t * int) list;
  coverage : Coverage.Set.t;
}

let of_corpus ~name corpus =
  {
    name;
    syscalls = Corpus.unique_syscalls corpus;
    categories = Corpus.category_histogram corpus;
    coverage = Corpus.coverage corpus;
  }

let mix t =
  let v =
    Array.of_list (List.map (fun cat ->
        match List.assoc_opt cat t.categories with
        | Some n -> float_of_int n
        | None -> 0.0)
      Category.all)
  in
  let total = Array.fold_left ( +. ) 0.0 v in
  if total > 0.0 then Array.iteri (fun i x -> v.(i) <- x /. total) v;
  v

let restrict corpus ~keep =
  let keeps cat = List.exists (Category.equal cat) keep in
  let progs =
    Array.to_list (Corpus.programs corpus)
    |> List.filter_map (fun (p : Program.t) ->
           match
             List.filter
               (fun (c : Program.call) ->
                 List.for_all keeps c.Program.spec.Spec.categories)
               p.Program.calls
           with
           | [] -> None
           | calls -> Some { p with Program.calls })
  in
  match progs with [] -> None | progs -> Some (Corpus.of_programs progs)

(* --- live recording --------------------------------------------------- *)

type recorder = {
  rec_name : string;
  mutable programs : int;
  names : (string, unit) Hashtbl.t;
  counts : int array;  (** indexed by {!Category.index} *)
  mutable blocks : Coverage.Set.t;
}

let recorder ~name () =
  {
    rec_name = name;
    programs = 0;
    names = Hashtbl.create 64;
    counts = Array.make (List.length Category.all) 0;
    blocks = Coverage.Set.empty;
  }

let observe r (p : Program.t) =
  r.programs <- r.programs + 1;
  List.iter
    (fun (c : Program.call) ->
      Hashtbl.replace r.names c.Program.spec.Spec.name ();
      List.iter
        (fun cat ->
          let i = Category.index cat in
          r.counts.(i) <- r.counts.(i) + 1)
        c.Program.spec.Spec.categories)
    p.Program.calls;
  r.blocks <- Coverage.Set.union r.blocks (Coverage.of_program p)

let observed_blocks r = Coverage.Set.cardinal r.blocks

let snapshot r =
  if r.programs = 0 then invalid_arg "Profile.snapshot: nothing observed";
  {
    name = r.rec_name;
    syscalls =
      Hashtbl.fold (fun n () acc -> n :: acc) r.names []
      |> List.sort String.compare;
    categories = List.map (fun cat -> (cat, r.counts.(Category.index cat))) Category.all;
    coverage = r.blocks;
  }

(* --- serialisation ---------------------------------------------------- *)

let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "profile %s\n" t.name);
  Buffer.add_string buf
    (Printf.sprintf "syscalls %s\n" (String.concat "," t.syscalls));
  List.iter
    (fun (cat, n) ->
      Buffer.add_string buf
        (Printf.sprintf "category %s %d\n" (Category.to_string cat) n))
    t.categories;
  Buffer.add_string buf
    (Printf.sprintf "coverage %s\n"
       (String.concat ","
          (List.map string_of_int (Coverage.Set.to_list t.coverage))));
  Buffer.contents buf

let of_string s =
  let ( let* ) = Result.bind in
  let lines =
    String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")
  in
  let field prefix line =
    let plen = String.length prefix in
    if String.length line >= plen && String.sub line 0 plen = prefix then
      Some (String.sub line plen (String.length line - plen))
    else None
  in
  let rec parse lines name syscalls cats cov =
    match lines with
    | [] -> Ok (name, syscalls, List.rev cats, cov)
    | line :: rest -> (
        match field "profile " line with
        | Some n -> parse rest (Some n) syscalls cats cov
        | None -> (
            match field "syscalls " line with
            | Some body ->
                let names =
                  String.split_on_char ',' body
                  |> List.filter (fun n -> n <> "")
                in
                parse rest name (Some names) cats cov
            | None -> (
                match field "category " line with
                | Some body -> (
                    match String.split_on_char ' ' body with
                    | [ cat_s; n_s ] -> (
                        match
                          (Category.of_string cat_s, int_of_string_opt n_s)
                        with
                        | Some cat, Some n ->
                            parse rest name syscalls ((cat, n) :: cats) cov
                        | _ ->
                            Error
                              (Printf.sprintf "Profile: bad category line %S"
                                 line))
                    | _ ->
                        Error
                          (Printf.sprintf "Profile: bad category line %S" line))
                | None -> (
                    match field "coverage " line with
                    | Some body ->
                        let ids =
                          String.split_on_char ',' body
                          |> List.filter (fun x -> x <> "")
                          |> List.filter_map int_of_string_opt
                        in
                        parse rest name syscalls cats
                          (Some (Coverage.Set.of_list ids))
                    | None ->
                        Error (Printf.sprintf "Profile: unknown line %S" line)))
            ))
  in
  let* name, syscalls, categories, coverage =
    parse lines None None [] None
  in
  match (name, syscalls) with
  | None, _ -> Error "Profile: missing profile line"
  | _, None -> Error "Profile: missing syscalls line"
  | Some name, Some syscalls ->
      Ok
        {
          name;
          syscalls;
          categories;
          coverage = Option.value ~default:Coverage.Set.empty coverage;
        }
