let silverman_bandwidth samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Kde.silverman_bandwidth: empty";
  let acc = Ksurf_util.Welford.create () in
  Array.iter (Ksurf_util.Welford.add acc) samples;
  let sd = Ksurf_util.Welford.stddev acc in
  let sorted = Quantile.sorted_copy samples in
  let iqr = Quantile.of_sorted sorted 0.75 -. Quantile.of_sorted sorted 0.25 in
  let spread =
    let candidates = List.filter (fun v -> v > 0.0) [ sd; iqr /. 1.349 ] in
    match candidates with [] -> 0.0 | l -> List.fold_left Float.min infinity l
  in
  if spread <= 0.0 then
    (* Degenerate sample: pick a bandwidth proportional to the magnitude
       so the density is still well-defined. *)
    Float.max 1e-9 (Float.abs sorted.(0) *. 0.01 +. 1e-9)
  else 0.9 *. spread *. Float.pow (float_of_int n) (-0.2)

let gaussian u = Float.exp (-0.5 *. u *. u) /. Float.sqrt (2.0 *. Float.pi)

let density ~h samples x =
  let acc = ref 0.0 in
  Array.iter (fun s -> acc := !acc +. gaussian ((x -. s) /. h)) samples;
  !acc /. (float_of_int (Array.length samples) *. h)

let estimate samples x =
  if Array.length samples = 0 then invalid_arg "Kde.estimate: empty";
  density ~h:(silverman_bandwidth samples) samples x

let curve ?(points = 64) samples =
  if Array.length samples = 0 then invalid_arg "Kde.curve: empty";
  if points < 2 then invalid_arg "Kde.curve: need at least two points";
  let h = silverman_bandwidth samples in
  let lo = Quantile.min_value samples -. (3.0 *. h) in
  let hi = Quantile.max_value samples +. (3.0 *. h) in
  Array.init points (fun i ->
      let x = lo +. (float_of_int i /. float_of_int (points - 1) *. (hi -. lo)) in
      (x, density ~h samples x))

let log_curve ?(points = 64) samples =
  let logs =
    Array.of_list
      (List.filter_map
         (fun v -> if v > 0.0 then Some (Float.log10 v) else None)
         (Array.to_list samples))
  in
  if Array.length logs = 0 then invalid_arg "Kde.log_curve: no positive samples";
  let pairs = curve ~points logs in
  Array.map (fun (lx, d) -> (Float.pow 10.0 lx, d)) pairs
