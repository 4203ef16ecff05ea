(* All fields are floats, the count included, so OCaml lays the record
   out as a flat float block and every [add] updates it in place.  With
   an [int] count the record would be mixed and each float store would
   box a fresh value: five allocations per sample, on a path the lock
   primitives take twice per hold.  Counts stay exact up to 2^53. *)
type t = {
  mutable n : float;
  mutable mean : float;
  mutable m2 : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable total : float;
}

let create () =
  { n = 0.0; mean = 0.0; m2 = 0.0; min_v = infinity; max_v = neg_infinity; total = 0.0 }

let[@inline] add t x =
  t.n <- t.n +. 1.0;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x;
  t.total <- t.total +. x

(* [add] inlined, so the sample is read from the cell unboxed: the sync
   primitives compute each wait and hold into a scratch cell instead of
   passing a freshly computed float. *)
let add_cell t cell = add t cell.(0)

let count t = int_of_float t.n
let mean t = if t.n = 0.0 then 0.0 else t.mean
let variance t = if t.n < 2.0 then 0.0 else t.m2 /. (t.n -. 1.0)
let stddev t = Float.sqrt (variance t)
let min_value t = t.min_v
let max_value t = t.max_v
let total t = t.total

let merge a b =
  if a.n = 0.0 then { b with n = b.n }
  else if b.n = 0.0 then { a with n = a.n }
  else begin
    let n = a.n +. b.n in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. b.n /. n) in
    let m2 = a.m2 +. b.m2 +. (delta *. delta *. a.n *. b.n /. n) in
    {
      n;
      mean;
      m2;
      min_v = Float.min a.min_v b.min_v;
      max_v = Float.max a.max_v b.max_v;
      total = a.total +. b.total;
    }
  end
