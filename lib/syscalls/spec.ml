type t = {
  name : string;
  number : int;
  categories : Ksurf_kernel.Category.t list;
  doc : string;
  arg_model : Arg.model;
  ops : Arg.t -> Ksurf_kernel.Ops.op list;
}

(* Op programs are pure functions of the argument, and an argument
   drawn from the call's model takes one of only
   |sizes| x max_obj x max_flags values, so each program is built once
   and then shared.  A hit is an array read and allocates nothing.  An
   argument outside the model goes to the builder every time, unless a
   caller that issues such arguments on purpose (tailbench's 512-byte
   requests, objects past max_obj) memoises over its own wider model
   with [covering].

   The slot table is shared by every domain that runs the call.  Racing
   builders store structurally equal programs, and OCaml's memory model
   makes the unsynchronised publication safe: a reader sees [None] or a
   complete program. *)
let max_memo_slots = 4096

let rec size_index sizes size i =
  if i = Array.length sizes then -1
  else if sizes.(i) = size then i
  else size_index sizes size (i + 1)

let memoise (model : Arg.model) build =
  let nsizes = Array.length model.Arg.sizes in
  let slots = nsizes * model.Arg.max_obj * model.Arg.max_flags in
  if slots <= 0 || slots > max_memo_slots then build
  else begin
    let memo = Array.make slots None in
    fun (arg : Arg.t) ->
      let s = size_index model.Arg.sizes arg.Arg.size 0 in
      if
        s < 0 || arg.Arg.obj < 0
        || arg.Arg.obj >= model.Arg.max_obj
        || arg.Arg.flags < 0
        || arg.Arg.flags >= model.Arg.max_flags
      then build arg
      else begin
        let i = (((s * model.Arg.max_obj) + arg.Arg.obj) * model.Arg.max_flags) + arg.Arg.flags in
        match memo.(i) with
        | Some ops -> ops
        | None ->
            let ops = build arg in
            memo.(i) <- Some ops;
            ops
      end
  end

let make ~name ~number ~categories ~doc ?(arg_model = Arg.no_args) ops =
  if name = "" then invalid_arg "Spec.make: empty name";
  if categories = [] then invalid_arg "Spec.make: no categories";
  { name; number; categories; doc; arg_model; ops = memoise arg_model ops }

(* A miss falls through to [t.ops], so an argument inside the call's
   own model still shares the program its memo holds. *)
let covering t model = { t with ops = memoise model t.ops }

let in_category t cat =
  List.exists (fun c -> Ksurf_kernel.Category.equal c cat) t.categories

let pp ppf t =
  Format.fprintf ppf "%s(%d) [%s] — %s" t.name t.number
    (String.concat "," (List.map Ksurf_kernel.Category.to_string t.categories))
    t.doc
