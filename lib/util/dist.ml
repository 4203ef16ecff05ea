type t =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float }
  | Erlang of { k : int; mean : float }
  | Lognormal of { mu : float; sigma : float }
  | Pareto of { scale : float; shape : float }
  | Bounded_pareto of { lo : float; hi : float; shape : float }
  | Shifted of float * t
  | Scaled of float * t
  | Mixture of { cumulative : float array; components : t array }

let constant v =
  if v < 0.0 then invalid_arg "Dist.constant: negative";
  Constant v

let uniform ~lo ~hi =
  if lo < 0.0 || hi < lo then invalid_arg "Dist.uniform: bad bounds";
  Uniform { lo; hi }

let exponential ~mean =
  if mean <= 0.0 then invalid_arg "Dist.exponential: mean must be positive";
  Exponential { mean }

let erlang ~k ~mean =
  if k <= 0 || mean <= 0.0 then invalid_arg "Dist.erlang: bad parameters";
  Erlang { k; mean }

let lognormal ~median ~sigma =
  if median <= 0.0 || sigma < 0.0 then invalid_arg "Dist.lognormal: bad parameters";
  Lognormal { mu = Float.log median; sigma }

let pareto ~scale ~shape =
  if scale <= 0.0 || shape <= 0.0 then invalid_arg "Dist.pareto: bad parameters";
  Pareto { scale; shape }

let bounded_pareto ~lo ~hi ~shape =
  if lo <= 0.0 || hi <= lo || shape <= 0.0 then
    invalid_arg "Dist.bounded_pareto: bad parameters";
  Bounded_pareto { lo; hi; shape }

let shifted c d =
  if c < 0.0 then invalid_arg "Dist.shifted: negative shift";
  Shifted (c, d)

let scaled f d =
  if f < 0.0 then invalid_arg "Dist.scaled: negative factor";
  Scaled (f, d)

let mixture parts =
  if parts = [] then invalid_arg "Dist.mixture: empty";
  let weights = List.map fst parts in
  if List.exists (fun w -> w < 0.0) weights then
    invalid_arg "Dist.mixture: negative weight";
  let total = List.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Dist.mixture: zero total weight";
  let n = List.length parts in
  let cumulative = Array.make n 0.0 in
  let components = Array.make n (Constant 0.0) in
  let acc = ref 0.0 in
  List.iteri
    (fun i (w, d) ->
      acc := !acc +. (w /. total);
      cumulative.(i) <- !acc;
      components.(i) <- d)
    parts;
  cumulative.(n - 1) <- 1.0;
  Mixture { cumulative; components }

(* [Prng.uniform], drawn here so the value stays an unboxed local: a
   call to [Prng.uniform] returns a boxed float.  Same bits, same
   value (see [Prng.bits53]). *)
let[@inline always] unit_draw rng =
  float_of_int (Prng.bits53 rng) *. (1.0 /. 9007199254740992.0)

(* The only allocation is the result's box.  Every draw is a local
   [unit_draw] and the mixture's component search is a loop, not a
   closure over the draw. *)
let rec sample d rng =
  let v =
    match d with
    | Constant v -> v
    | Uniform { lo; hi } -> lo +. (unit_draw rng *. (hi -. lo))
    | Exponential { mean } ->
        let u = 1.0 -. unit_draw rng in
        -.mean *. Float.log u
    | Erlang { k; mean } ->
        let stage_mean = mean /. float_of_int k in
        let acc = ref 0.0 in
        for _ = 1 to k do
          let u = 1.0 -. unit_draw rng in
          acc := !acc -. (stage_mean *. Float.log u)
        done;
        !acc
    | Lognormal { mu; sigma } ->
        (* Box–Muller; one draw per sample keeps the stream usage simple
           and deterministic. *)
        let u1 = 1.0 -. unit_draw rng and u2 = unit_draw rng in
        let z = Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2) in
        Float.exp (mu +. (sigma *. z))
    | Pareto { scale; shape } ->
        let u = 1.0 -. unit_draw rng in
        scale /. Float.pow u (1.0 /. shape)
    | Bounded_pareto { lo; hi; shape } ->
        (* Inverse CDF of the truncated Pareto. *)
        let u = unit_draw rng in
        let la = Float.pow lo shape and ha = Float.pow hi shape in
        let x = -.((u *. ha) -. u *. la -. ha) /. (ha *. la) in
        Float.pow (1.0 /. x) (1.0 /. shape)
    | Shifted (c, d) -> c +. sample d rng
    | Scaled (f, d) -> f *. sample d rng
    | Mixture { cumulative; components } ->
        let u = unit_draw rng in
        let last = Array.length cumulative - 1 in
        let i = ref 0 in
        while not (!i >= last || u < cumulative.(!i)) do
          incr i
        done;
        sample components.(!i) rng
  in
  if v < 0.0 then 0.0 else v

let rec mean_estimate = function
  | Constant v -> v
  | Uniform { lo; hi } -> (lo +. hi) /. 2.0
  | Exponential { mean } -> mean
  | Erlang { mean; _ } -> mean
  | Lognormal { mu; sigma } -> Float.exp (mu +. (sigma *. sigma /. 2.0))
  | Pareto { scale; shape } ->
      if shape > 1.0 then shape *. scale /. (shape -. 1.0)
        (* Infinite-mean regime: report the 99.9th percentile as a usable
           magnitude for rate planning. *)
      else scale /. Float.pow 0.001 (1.0 /. shape)
  | Bounded_pareto { lo; hi; shape } ->
      if Float.abs (shape -. 1.0) < 1e-9 then
        lo *. hi /. (hi -. lo) *. Float.log (hi /. lo)
      else
        let la = Float.pow lo shape and ha = Float.pow hi shape in
        shape /. (shape -. 1.0)
        *. ((la /. Float.pow lo (shape -. 1.0)) -. (la /. Float.pow hi (shape -. 1.0)))
        /. (1.0 -. (la /. ha))
  | Shifted (c, d) -> c +. mean_estimate d
  | Scaled (f, d) -> f *. mean_estimate d
  | Mixture { cumulative; components } ->
      let n = Array.length components in
      let acc = ref 0.0 and prev = ref 0.0 in
      for i = 0 to n - 1 do
        let w = cumulative.(i) -. !prev in
        prev := cumulative.(i);
        acc := !acc +. (w *. mean_estimate components.(i))
      done;
      !acc
