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
