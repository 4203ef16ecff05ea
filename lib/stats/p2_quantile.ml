type t = {
  q : float;
  (* Marker heights and (1-based) positions; desired positions advance
     by the increments below on every observation. *)
  heights : float array;  (* 5 *)
  positions : float array;
  desired : float array;
  increments : float array;
  mutable n : int;
  initial : float array;  (* first five samples, for startup *)
}

(* The state before any sample.  [initial] needs no clearing: [add]
   overwrites a slot before anything reads it. *)
let reset t =
  let q = t.q in
  Array.fill t.heights 0 5 0.0;
  for i = 0 to 4 do
    t.positions.(i) <- float_of_int (i + 1)
  done;
  t.desired.(0) <- 1.0;
  t.desired.(1) <- 1.0 +. (2.0 *. q);
  t.desired.(2) <- 1.0 +. (4.0 *. q);
  t.desired.(3) <- 3.0 +. (2.0 *. q);
  t.desired.(4) <- 5.0;
  t.n <- 0

let create q =
  if q <= 0.0 || q >= 1.0 then invalid_arg "P2_quantile.create: q in (0,1)";
  let t =
    {
      q;
      heights = Array.make 5 0.0;
      positions = Array.make 5 0.0;
      desired = Array.make 5 0.0;
      increments = [| 0.0; q /. 2.0; q; (1.0 +. q) /. 2.0; 1.0 |];
      n = 0;
      initial = Array.make 5 0.0;
    }
  in
  reset t;
  t

let count t = t.n

(* [add] runs once per observation on every streaming statistic and
   allocates nothing: both predictions are inlined, so their float
   results are never boxed, and the cell search is a loop rather than a
   closure over [x]. *)
let[@inline] parabolic t i d =
  let qi = t.heights.(i) in
  let ni = t.positions.(i) in
  let np = t.positions.(i + 1) and nm = t.positions.(i - 1) in
  let qp = t.heights.(i + 1) and qm = t.heights.(i - 1) in
  qi
  +. d /. (np -. nm)
     *. (((ni -. nm +. d) *. (qp -. qi) /. (np -. ni))
        +. ((np -. ni -. d) *. (qi -. qm) /. (ni -. nm)))

let[@inline] linear t i d =
  let j = i + int_of_float d in
  t.heights.(i)
  +. (d *. (t.heights.(j) -. t.heights.(i)) /. (t.positions.(j) -. t.positions.(i)))

let add t x =
  t.n <- t.n + 1;
  if t.n <= 5 then begin
    t.initial.(t.n - 1) <- x;
    if t.n = 5 then begin
      let sorted = Array.copy t.initial in
      Array.sort Float.compare sorted;
      Array.blit sorted 0 t.heights 0 5
    end
  end
  else begin
    (* Find the cell and bump marker positions above it. *)
    let k =
      if x < t.heights.(0) then begin
        t.heights.(0) <- x;
        0
      end
      else if x >= t.heights.(4) then begin
        t.heights.(4) <- x;
        3
      end
      else begin
        let i = ref 0 in
        while not (x < t.heights.(!i + 1)) do
          incr i
        done;
        !i
      end
    in
    for i = k + 1 to 4 do
      t.positions.(i) <- t.positions.(i) +. 1.0
    done;
    for i = 0 to 4 do
      t.desired.(i) <- t.desired.(i) +. t.increments.(i)
    done;
    (* Adjust the three interior markers. *)
    for i = 1 to 3 do
      let d = t.desired.(i) -. t.positions.(i) in
      if
        (d >= 1.0 && t.positions.(i + 1) -. t.positions.(i) > 1.0)
        || (d <= -1.0 && t.positions.(i - 1) -. t.positions.(i) < -1.0)
      then begin
        let d = if d >= 0.0 then 1.0 else -1.0 in
        let candidate = parabolic t i d in
        let candidate =
          if t.heights.(i - 1) < candidate && candidate < t.heights.(i + 1) then
            candidate
          else linear t i d
        in
        t.heights.(i) <- candidate;
        t.positions.(i) <- t.positions.(i) +. d
      end
    done
  end

let value t =
  if t.n = 0 then failwith "P2_quantile.value: empty";
  if t.n < 5 then begin
    let sorted = Array.sub t.initial 0 t.n in
    Array.sort Float.compare sorted;
    Quantile.of_sorted sorted t.q
  end
  else t.heights.(2)

let markers t = (Array.copy t.heights, Array.copy t.positions)

let quantile_opt t = if t.n = 0 then None else Some (value t)
