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

let[@inline always] clamp v = if v < 0.0 then 0.0 else v

(* One draw per random leaf, unclamped.  Inlined into both samplers, one
   branch each, so every draw is a local [unit_draw] and the value stays
   unboxed: a single match returning the leaf's value would box it in
   every branch. *)
let[@inline always] uniform_draw lo hi rng = lo +. (unit_draw rng *. (hi -. lo))

let[@inline always] exponential_draw mean rng =
  let u = 1.0 -. unit_draw rng in
  -.mean *. Float.log u

(* Box–Muller; one draw per sample keeps the stream usage simple and
   deterministic. *)
let[@inline always] lognormal_draw mu sigma rng =
  let u1 = 1.0 -. unit_draw rng and u2 = unit_draw rng in
  let z = Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2) in
  Float.exp (mu +. (sigma *. z))

(* Inverse CDF of the truncated Pareto. *)
let[@inline always] pareto_draw lo hi shape rng =
  let u = unit_draw rng in
  let la = Float.pow lo shape and ha = Float.pow hi shape in
  let x = -.((u *. ha) -. u *. la -. ha) /. (ha *. la) in
  Float.pow (1.0 /. x) (1.0 /. shape)

(* The only allocation is the result's box. *)
let rec sample d rng =
  match d with
  | Constant v -> clamp v
  | Uniform { lo; hi } -> clamp (uniform_draw lo hi rng)
  | Exponential { mean } -> clamp (exponential_draw mean rng)
  | Lognormal { mu; sigma } -> clamp (lognormal_draw mu sigma rng)
  | Bounded_pareto { lo; hi; shape } -> clamp (pareto_draw lo hi shape rng)
  | Shifted (c, d) -> clamp (c +. sample d rng)
  | Scaled (f, d) -> clamp (f *. sample d rng)

(* [sample], with every level's value kept in [cell.(0)]: the same draws
   in the same order and the same clamp at every level, so the same
   bits, and no box at all. *)
let rec sample_into d rng cell =
  match d with
  | Constant v -> cell.(0) <- clamp v
  | Uniform { lo; hi } -> cell.(0) <- clamp (uniform_draw lo hi rng)
  | Exponential { mean } -> cell.(0) <- clamp (exponential_draw mean rng)
  | Lognormal { mu; sigma } -> cell.(0) <- clamp (lognormal_draw mu sigma rng)
  | Bounded_pareto { lo; hi; shape } -> cell.(0) <- clamp (pareto_draw lo hi shape rng)
  | Shifted (c, d) ->
      sample_into d rng cell;
      cell.(0) <- clamp (c +. cell.(0))
  | Scaled (f, d) ->
      sample_into d rng cell;
      cell.(0) <- clamp (f *. cell.(0))

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
