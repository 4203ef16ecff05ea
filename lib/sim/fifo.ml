(* A ring of power-of-two capacity: [head] indexes the front, and the
   [len] elements after it (modulo the capacity) are the queue. *)
type t = { mutable ring : int array; mutable head : int; mutable len : int }

let create () = { ring = [||]; head = 0; len = 0 }
let is_empty t = t.len = 0
let length t = t.len

(* Unroll the ring into a twice-as-large one whose front is index 0. *)
let grow t =
  let cap = Array.length t.ring in
  let ring = Array.make (if cap = 0 then 4 else 2 * cap) 0 in
  for i = 0 to t.len - 1 do
    ring.(i) <- t.ring.((t.head + i) land (cap - 1))
  done;
  t.ring <- ring;
  t.head <- 0

let push t x =
  if t.len = Array.length t.ring then grow t;
  t.ring.((t.head + t.len) land (Array.length t.ring - 1)) <- x;
  t.len <- t.len + 1

let peek t =
  if t.len = 0 then invalid_arg "Fifo.peek: empty";
  t.ring.(t.head)

let pop t =
  let x = peek t in
  t.head <- (t.head + 1) land (Array.length t.ring - 1);
  t.len <- t.len - 1;
  x
