module Welford = Ksurf_util.Welford

let default_exact_cap = 4096

type t = {
  exact_cap : int;
  welford : Welford.t;
  q50 : P2_quantile.t;
  q95 : P2_quantile.t;
  q99 : P2_quantile.t;
  mutable buf : float array;
  mutable len : int;
  mutable spilled : bool;
}

let make exact_cap =
  {
    exact_cap;
    welford = Welford.create ();
    q50 = P2_quantile.create 0.5;
    q95 = P2_quantile.create 0.95;
    q99 = P2_quantile.create 0.99;
    buf = [||];
    len = 0;
    spilled = exact_cap = 0;
  }

let create () = make default_exact_cap
let streaming () = make 0

let feed_p2 t x =
  P2_quantile.add t.q50 x;
  P2_quantile.add t.q95 x;
  P2_quantile.add t.q99 x

let spill t =
  for i = 0 to t.len - 1 do
    feed_p2 t t.buf.(i)
  done;
  t.buf <- [||];
  t.spilled <- true

let push t x =
  if t.len = Array.length t.buf then begin
    let cap = max 16 (min t.exact_cap (2 * t.len)) in
    let grown = Array.make cap 0.0 in
    Array.blit t.buf 0 grown 0 t.len;
    t.buf <- grown
  end;
  t.buf.(t.len) <- x;
  t.len <- t.len + 1

let add t x =
  Welford.add t.welford x;
  if t.spilled then feed_p2 t x
  else begin
    push t x;
    if t.len >= t.exact_cap then spill t
  end

let count t = Welford.count t.welford
let mean t = Welford.mean t.welford
let variance t = Welford.variance t.welford
let min_value t = Welford.min_value t.welford
let max_value t = Welford.max_value t.welford
let total t = Welford.total t.welford

let exact t = if t.spilled then None else Some (Array.sub t.buf 0 t.len)

let exact_quantile t q =
  if t.len = 0 then 0.0
  else begin
    let sorted = Array.sub t.buf 0 t.len in
    Array.sort compare sorted;
    Quantile.of_sorted sorted q
  end

let spilled_quantile q =
  Option.value (P2_quantile.quantile_opt q) ~default:0.0

let p50 t = if t.spilled then spilled_quantile t.q50 else exact_quantile t 0.5
let p95 t = if t.spilled then spilled_quantile t.q95 else exact_quantile t 0.95
let p99 t = if t.spilled then spilled_quantile t.q99 else exact_quantile t 0.99
