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
