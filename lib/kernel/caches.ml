type t = {
  name : string;
  base_hit_rate : float;
  pressure_per_sharer : float;
  mutable sharers : int;
  mutable extra_pressure : float;
  (* What the fields above give, refreshed whenever one of them
     changes, so a probe passes a stored float to [Prng.chance] instead
     of boxing a freshly computed one on every lookup. *)
  mutable hit_rate : float;
  mutable lookups : int;
  mutable misses : int;
}

let refresh t =
  let degraded =
    t.base_hit_rate
    -. (float_of_int (t.sharers - 1) *. t.pressure_per_sharer)
    -. t.extra_pressure
  in
  t.hit_rate <- Float.max 0.5 degraded

let create ~name ~base_hit_rate ~pressure_per_sharer =
  if base_hit_rate < 0.0 || base_hit_rate > 1.0 then
    invalid_arg "Caches.create: hit rate out of range";
  let t =
    {
      name;
      base_hit_rate;
      pressure_per_sharer;
      sharers = 1;
      extra_pressure = 0.0;
      hit_rate = 0.0;
      lookups = 0;
      misses = 0;
    }
  in
  refresh t;
  t

let set_sharers t n =
  t.sharers <- max 1 n;
  refresh t

let set_extra_pressure t p =
  t.extra_pressure <- Float.max 0.0 p;
  refresh t

let extra_pressure t = t.extra_pressure
let hit_rate t = t.hit_rate

let probe t rng =
  t.lookups <- t.lookups + 1;
  let hit = Ksurf_util.Prng.chance rng t.hit_rate in
  if not hit then t.misses <- t.misses + 1;
  hit

let name t = t.name
let lookups t = t.lookups
let misses t = t.misses
