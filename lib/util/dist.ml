type t =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float }
  | Lognormal of { mu : float; sigma : float }
  | Bounded_pareto of { lo : float; hi : float; shape : float }
  | Shifted of float * t
  | Scaled of float * t

let constant v =
  if v < 0.0 then invalid_arg "Dist.constant: negative";
  Constant v

let uniform ~lo ~hi =
  if lo < 0.0 || hi < lo then invalid_arg "Dist.uniform: bad bounds";
  Uniform { lo; hi }

let exponential ~mean =
  if mean <= 0.0 then invalid_arg "Dist.exponential: mean must be positive";
  Exponential { mean }

let lognormal ~median ~sigma =
  if median <= 0.0 || sigma < 0.0 then invalid_arg "Dist.lognormal: bad parameters";
  Lognormal { mu = Float.log median; sigma }

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

(* [Prng.uniform], drawn here so the value stays an unboxed local: a
   call to [Prng.uniform] returns a boxed float.  Same bits, same
   value (see [Prng.bits53]). *)
let[@inline always] unit_draw rng =
  float_of_int (Prng.bits53 rng) *. (1.0 /. 9007199254740992.0)

(* The only allocation is the result's box: every draw is a local
   [unit_draw]. *)
let rec sample d rng =
  let v =
    match d with
    | Constant v -> v
    | Uniform { lo; hi } -> lo +. (unit_draw rng *. (hi -. lo))
    | Exponential { mean } ->
        let u = 1.0 -. unit_draw rng in
        -.mean *. Float.log u
    | Lognormal { mu; sigma } ->
        (* Box–Muller; one draw per sample keeps the stream usage simple
           and deterministic. *)
        let u1 = 1.0 -. unit_draw rng and u2 = unit_draw rng in
        let z = Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2) in
        Float.exp (mu +. (sigma *. z))
    | Bounded_pareto { lo; hi; shape } ->
        (* Inverse CDF of the truncated Pareto. *)
        let u = unit_draw rng in
        let la = Float.pow lo shape and ha = Float.pow hi shape in
        let x = -.((u *. ha) -. u *. la -. ha) /. (ha *. la) in
        Float.pow (1.0 /. x) (1.0 /. shape)
    | Shifted (c, d) -> c +. sample d rng
    | Scaled (f, d) -> f *. sample d rng
  in
  if v < 0.0 then 0.0 else v

let rec mean_estimate = function
  | Constant v -> v
  | Uniform { lo; hi } -> (lo +. hi) /. 2.0
  | Exponential { mean } -> mean
  | Lognormal { mu; sigma } -> Float.exp (mu +. (sigma *. sigma /. 2.0))
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
