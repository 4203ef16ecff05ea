type t = { size : int; obj : int; flags : int }

type model = { sizes : int array; max_obj : int; max_flags : int }

let default = { size = 0; obj = 0; flags = 0 }
let no_args = { sizes = [| 0 |]; max_obj = 1; max_flags = 1 }
let sized sizes =
  if Array.length sizes = 0 then invalid_arg "Arg.sized: empty";
  { sizes; max_obj = 8; max_flags = 2 }

let objected ?(max_flags = 2) max_obj =
  if max_obj < 1 then invalid_arg "Arg.objected: max_obj must be >= 1";
  { sizes = [| 0 |]; max_obj; max_flags }

let io = { sizes = [| 64; 4096; 65536; 1 lsl 20 |]; max_obj = 8; max_flags = 4 }

(* Flags, then object, then size: the order every recorded corpus and
   fingerprint was drawn in. *)
let generate model rng =
  let flags = Ksurf_util.Prng.int rng model.max_flags in
  let obj = Ksurf_util.Prng.int rng model.max_obj in
  let size = Ksurf_util.Prng.pick rng model.sizes in
  { size; obj; flags }

let size_bucket size =
  if size <= 0 then 0
  else begin
    let rec log2 acc v = if v <= 1 then acc else log2 (acc + 1) (v lsr 1) in
    (* Group adjacent powers of two: 1-127 -> 1, 128-2047 -> 2, ... *)
    1 + (log2 0 size / 4)
  end

let to_string t = Printf.sprintf "%d:%d:%d" t.size t.obj t.flags

let of_string s =
  match String.split_on_char ':' s with
  | [ a; b; c ] -> (
      match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c) with
      | Some size, Some obj, Some flags -> Some { size; obj; flags }
      | _ -> None)
  | _ -> None

let equal a b = a.size = b.size && a.obj = b.obj && a.flags = b.flags
