(* Bit-identity of the allocation-free hot path.  Each property runs the
   library's code and a reference written the plain way (helper
   functions returning floats, draws through [Prng.uniform]) side by
   side on copies of one stream, and requires bitwise-equal floats and
   equal stream positions afterwards.  The seed-42 ledger fingerprints
   cover the paths the studies take; these cover the rest. *)

open Ksurf
module P2 = Ksurf_stats.P2_quantile

(* --- P² marker update --------------------------------------------- *)

(* The marker update as written before it was made closure- and
   box-free: a local [find] closure and [parabolic]/[linear] helpers
   returning floats. *)
module Ref_p2 = struct
  type t = {
    heights : float array;
    positions : float array;
    desired : float array;
    increments : float array;
    mutable n : int;
    initial : float array;
  }

  let create q =
    {
      heights = Array.make 5 0.0;
      positions = [| 1.0; 2.0; 3.0; 4.0; 5.0 |];
      desired = [| 1.0; 1.0 +. (2.0 *. q); 1.0 +. (4.0 *. q); 3.0 +. (2.0 *. q); 5.0 |];
      increments = [| 0.0; q /. 2.0; q; (1.0 +. q) /. 2.0; 1.0 |];
      n = 0;
      initial = Array.make 5 0.0;
    }

  let parabolic t i d =
    let qi = t.heights.(i) in
    let ni = t.positions.(i) in
    let np = t.positions.(i + 1) and nm = t.positions.(i - 1) in
    let qp = t.heights.(i + 1) and qm = t.heights.(i - 1) in
    qi
    +. d /. (np -. nm)
       *. (((ni -. nm +. d) *. (qp -. qi) /. (np -. ni))
          +. ((np -. ni -. d) *. (qi -. qm) /. (ni -. nm)))

  let linear t i d =
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
          let rec find i = if x < t.heights.(i + 1) then i else find (i + 1) in
          find 0
        end
      in
      for i = k + 1 to 4 do
        t.positions.(i) <- t.positions.(i) +. 1.0
      done;
      for i = 0 to 4 do
        t.desired.(i) <- t.desired.(i) +. t.increments.(i)
      done;
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
end

let markers_agree p r =
  let heights, positions = P2.markers p in
  Array.for_all2 Float.equal heights r.Ref_p2.heights
  && Array.for_all2 Float.equal positions r.Ref_p2.positions

(* Every marker after every sample, not just the final estimate. *)
let p2_agrees q samples =
  let p = P2.create q and r = Ref_p2.create q in
  List.for_all
    (fun x ->
      P2.add p x;
      Ref_p2.add r x;
      markers_agree p r)
    samples

let quantile_gen = QCheck.Gen.oneofl [ 0.01; 0.25; 0.5; 0.9; 0.95; 0.99 ]

let prop_p2_random =
  QCheck.Test.make ~name:"P2 markers match the reference (random)" ~count:200
    QCheck.(
      pair (make quantile_gen)
        (list_of_size Gen.(int_range 0 400) (float_range (-1e6) 1e9)))
    (fun (q, samples) -> p2_agrees q samples)

(* Few distinct values: ties with the extreme markers and between
   interior ones, where the cell search and the linear fallback run. *)
let prop_p2_tied =
  QCheck.Test.make ~name:"P2 markers match the reference (tied)" ~count:200
    QCheck.(
      pair (make quantile_gen)
        (list_of_size Gen.(int_range 0 400) (map float_of_int (int_range 0 3))))
    (fun (q, samples) -> p2_agrees q samples)

(* --- unit draws ----------------------------------------------------- *)

(* The identity every module-local unit draw rests on. *)
let prop_bits53 =
  QCheck.Test.make ~name:"bits53 scaled is Prng.uniform" ~count:200 QCheck.small_nat
    (fun seed ->
      let a = Prng.create seed in
      let b = Prng.copy a in
      List.for_all
        (fun _ ->
          let u = Prng.uniform b in
          Float.equal (float_of_int (Prng.bits53 a) *. (1.0 /. 9007199254740992.0)) u)
        (List.init 64 Fun.id)
      && Prng.save a = Prng.save b)

(* [Instance.burn]'s tick draw, against [Prng.chance] and [Dist.sample]
   on a copy of the instance's stream: the delay it adds and the stream
   position after it must match. *)
let prop_burn_draw =
  QCheck.Test.make ~name:"Instance.burn draws as Prng.chance" ~count:100
    QCheck.(pair small_nat (list_of_size Gen.(int_range 1 40) (float_range 0.0 3e6)))
    (fun (seed, durations) ->
      let engine = Engine.create ~seed () in
      let config = Kernel_config.without_background Kernel_config.default in
      let inst = Instance.boot ~engine ~config ~id:0 ~cores:2 ~mem_mb:512 () in
      let shadow = Prng.copy (Instance.rng inst) in
      let ok = ref true in
      Engine.spawn engine (fun () ->
          List.iter
            (fun d ->
              let start = Engine.now engine in
              (* [burn]'s own arithmetic, with [burn_mult] at its default 1. *)
              let d' = d *. config.Kernel_config.cpu_cost_factor *. 1.0 in
              let expected =
                if
                  Prng.chance shadow
                    (Float.min 1.0 (d' /. config.Kernel_config.tick_period))
                then d' +. Dist.sample config.Kernel_config.tick_service_cost shadow
                else d'
              in
              Instance.burn inst d;
              let expected_now = if expected > 0.0 then start +. expected else start in
              if not (Float.equal (Engine.now engine) expected_now) then ok := false)
            durations);
      Engine.run engine;
      !ok && Prng.save (Instance.rng inst) = Prng.save shadow)

(* --- Dist.sample ------------------------------------------------- *)

(* A distribution as data, so the reference can walk it; [build] makes
   the library's value through the public constructors. *)
type shape =
  | Const of float
  | Unif of float * float
  | Expo of float
  | Erl of int * float
  | Logn of float * float
  | Par of float * float
  | Bpar of float * float * float
  | Shift of float * shape
  | Scale of float * shape
  | Mix of (float * shape) list

let rec build = function
  | Const v -> Dist.constant v
  | Unif (lo, hi) -> Dist.uniform ~lo ~hi
  | Expo mean -> Dist.exponential ~mean
  | Erl (k, mean) -> Dist.erlang ~k ~mean
  | Logn (median, sigma) -> Dist.lognormal ~median ~sigma
  | Par (scale, shape) -> Dist.pareto ~scale ~shape
  | Bpar (lo, hi, shape) -> Dist.bounded_pareto ~lo ~hi ~shape
  | Shift (c, s) -> Dist.shifted c (build s)
  | Scale (f, s) -> Dist.scaled f (build s)
  | Mix parts -> Dist.mixture (List.map (fun (w, s) -> (w, build s)) parts)

(* The sampler as written before its draws moved into [Dist]: every
   draw through [Prng.uniform]/[Prng.float], the mixture search as a
   closure. *)
let rec ref_sample s rng =
  let v =
    match s with
    | Const v -> v
    | Unif (lo, hi) -> lo +. Prng.float rng (hi -. lo)
    | Expo mean ->
        let u = 1.0 -. Prng.uniform rng in
        -.mean *. Float.log u
    | Erl (k, mean) ->
        let stage_mean = mean /. float_of_int k in
        let acc = ref 0.0 in
        for _ = 1 to k do
          let u = 1.0 -. Prng.uniform rng in
          acc := !acc -. (stage_mean *. Float.log u)
        done;
        !acc
    | Logn (median, sigma) ->
        let mu = Float.log median in
        let u1 = 1.0 -. Prng.uniform rng and u2 = Prng.uniform rng in
        let z = Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2) in
        Float.exp (mu +. (sigma *. z))
    | Par (scale, shape) ->
        let u = 1.0 -. Prng.uniform rng in
        scale /. Float.pow u (1.0 /. shape)
    | Bpar (lo, hi, shape) ->
        let u = Prng.uniform rng in
        let la = Float.pow lo shape and ha = Float.pow hi shape in
        let x = -.((u *. ha) -. u *. la -. ha) /. (ha *. la) in
        Float.pow (1.0 /. x) (1.0 /. shape)
    | Shift (c, s) -> c +. ref_sample s rng
    | Scale (f, s) -> f *. ref_sample s rng
    | Mix parts ->
        let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 parts in
        let n = List.length parts in
        let cumulative = Array.make n 0.0 and acc = ref 0.0 in
        List.iteri
          (fun i (w, _) ->
            acc := !acc +. (w /. total);
            cumulative.(i) <- !acc)
          parts;
        cumulative.(n - 1) <- 1.0;
        let components = Array.of_list (List.map snd parts) in
        let u = Prng.uniform rng in
        let rec find i =
          if i >= Array.length cumulative - 1 || u < cumulative.(i) then i
          else find (i + 1)
        in
        ref_sample components.(find 0) rng
  in
  if v < 0.0 then 0.0 else v

let shape_gen =
  let open QCheck.Gen in
  let pos = float_range 0.5 1e5 in
  let leaf =
    oneof
      [
        map (fun v -> Const v) (float_range 0.0 1e4);
        map2 (fun lo w -> Unif (lo, lo +. w)) (float_range 0.0 1e4) (float_range 0.0 1e4);
        map (fun m -> Expo m) pos;
        map2 (fun k m -> Erl (k, m)) (int_range 1 6) pos;
        map2 (fun m s -> Logn (m, s)) pos (float_range 0.0 2.0);
        map2 (fun sc sh -> Par (sc, sh)) pos (float_range 0.1 4.0);
        map3 (fun lo w sh -> Bpar (lo, lo +. w, sh)) pos (float_range 1.0 1e6)
          (float_range 0.1 3.0);
      ]
  in
  sized_size (int_range 0 3)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map2 (fun c s -> Shift (c, s)) (float_range 0.0 1e3) (self (n - 1)));
               (1, map2 (fun f s -> Scale (f, s)) (float_range 0.0 10.0) (self (n - 1)));
               ( 2,
                 map (fun parts -> Mix parts)
                   (list_size (int_range 1 4)
                      (pair (float_range 0.01 5.0) (self (n - 1)))) );
             ])

let prop_dist_sample =
  QCheck.Test.make ~name:"Dist.sample matches the Prng.uniform reference" ~count:300
    QCheck.(pair (make shape_gen) small_nat)
    (fun (shape, seed) ->
      let d = build shape in
      let a = Prng.create seed in
      let b = Prng.copy a in
      List.for_all
        (fun _ -> Float.equal (Dist.sample d a) (ref_sample shape b))
        (List.init 32 Fun.id)
      && Prng.save a = Prng.save b)

(* --- Welford.add_span -------------------------------------------- *)

let prop_add_span =
  QCheck.Test.make ~name:"Welford.add_span is add of the difference" ~count:300
    QCheck.(list (pair (float_range 0.0 1e9) (float_range 0.0 1e6)))
    (fun spans ->
      let a = Welford.create () and b = Welford.create () in
      List.iter
        (fun (since, len) ->
          let until = since +. len in
          Welford.add_span a ~since ~until;
          Welford.add b (until -. since))
        spans;
      Welford.count a = Welford.count b
      && Float.equal (Welford.mean a) (Welford.mean b)
      && Float.equal (Welford.variance a) (Welford.variance b)
      && Float.equal (Welford.min_value a) (Welford.min_value b)
      && Float.equal (Welford.max_value a) (Welford.max_value b)
      && Float.equal (Welford.total a) (Welford.total b))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_p2_random;
      prop_p2_tied;
      prop_bits53;
      prop_burn_draw;
      prop_dist_sample;
      prop_add_span;
    ]
