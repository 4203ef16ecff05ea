(* The 64-bit state lives in an 8-byte buffer rather than a mutable
   [int64] field: a field store boxes every new state (3 words per
   draw), while [Bytes.get/set_int64_ne] read and write it raw.  With
   [mix64] and [bits64] inlined, [int], [chance] and [bool] advance the
   stream without allocating at all. *)
type t = { state : Bytes.t; seed : int }

(* SplitMix64 (Steele, Lea, Flood 2014).  Chosen for speed, full 64-bit
   state, and cheap stream derivation: mixing the seed with a label hash
   yields streams that are independent for all practical purposes. *)

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline always] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state seed =
  let buf = Bytes.create 8 in
  Bytes.set_int64_ne buf 0 state;
  { state = buf; seed }

let create seed = of_state (mix64 (Int64.of_int seed)) seed

let[@inline always] bits64 t =
  let s = Int64.add (Bytes.get_int64_ne t.state 0) golden_gamma in
  Bytes.set_int64_ne t.state 0 s;
  mix64 s

(* FNV-1a over the label, folded into the parent's seed. *)
let label_hash label =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    label;
  !h

let split t label =
  let child_seed =
    Int64.to_int (mix64 (Int64.logxor (Int64.of_int t.seed) (label_hash label)))
  in
  create child_seed

let copy t = { state = Bytes.copy t.state; seed = t.seed }
let seed_of t = t.seed
let save t = (Bytes.get_int64_ne t.state 0, t.seed)
let restore ~state ~seed = of_state state seed

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is < 2^-50 for n < 2^13,
     and all ksurf bounds are small.  Keep 62 bits so the OCaml int is
     guaranteed non-negative. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod n

(* An immediate int crosses a module boundary unboxed.  [Int64.to_float]
   and [float_of_int] agree below 2^53, so scaling this by 2^-53 gives
   exactly [uniform]'s value. *)
let bits53 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 11)

let[@inline always] uniform t =
  (* 53 random bits into [0,1). *)
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  v *. (1.0 /. 9007199254740992.0)

let float t x = uniform t *. x
let bool t = Int64.logand (bits64 t) 1L = 1L

let chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else uniform t < p

let pick t a =
  if Array.length a = 0 then invalid_arg "Prng.pick: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
