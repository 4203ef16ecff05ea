let sorted_copy samples =
  let copy = Array.copy samples in
  Array.sort Float.compare copy;
  copy

let of_sorted sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Quantile.of_sorted: empty";
  if q < 0.0 || q > 1.0 then invalid_arg "Quantile.of_sorted: q out of range";
  if n = 1 then sorted.(0)
  else begin
    (* Type-7: h = (n-1) q; interpolate between floor and ceil. *)
    let h = float_of_int (n - 1) *. q in
    let lo = int_of_float (Float.floor h) in
    let hi = if lo + 1 < n then lo + 1 else lo in
    let frac = h -. Float.floor h in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let quantile samples q = of_sorted (sorted_copy samples) q
let median samples = quantile samples 0.5
let p99 samples = quantile samples 0.99
let p95 samples = quantile samples 0.95

let max_value samples =
  if Array.length samples = 0 then invalid_arg "Quantile.max_value: empty";
  Array.fold_left Float.max neg_infinity samples

let min_value samples =
  if Array.length samples = 0 then invalid_arg "Quantile.min_value: empty";
  Array.fold_left Float.min infinity samples


type summary = {
  count : int;
  mean : float;
  median : float;
  p95 : float;
  p99 : float;
  min : float;
  max : float;
}

let summarize samples =
  let sorted = sorted_copy samples in
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Quantile.summarize: empty";
  let total = Array.fold_left ( +. ) 0.0 sorted in
  {
    count = n;
    mean = total /. float_of_int n;
    median = of_sorted sorted 0.5;
    p95 = of_sorted sorted 0.95;
    p99 = of_sorted sorted 0.99;
    min = sorted.(0);
    max = sorted.(n - 1);
  }
