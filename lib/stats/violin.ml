type t = {
  label : string;
  count : int;
  median : float;
  q1 : float;
  q3 : float;
  lo95 : float;
  hi95 : float;
  min : float;
  max : float;
  density : (float * float) array;
}

let of_samples ~label samples =
  let sorted = Quantile.sorted_copy samples in
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Violin.of_samples: empty";
  let q p = Quantile.of_sorted sorted p in
  let density =
    if n >= 2 && sorted.(n - 1) > sorted.(0) then Kde.log_curve ~points:48 sorted
    else [| (sorted.(0), 1.0) |]
  in
  {
    label;
    count = n;
    median = q 0.5;
    q1 = q 0.25;
    q3 = q 0.75;
    lo95 = q 0.025;
    hi95 = q 0.975;
    min = sorted.(0);
    max = sorted.(n - 1);
    density;
  }

let header =
  "label            n      min     lo95       q1      med       q3     hi95      max"

let pp_row ppf v =
  Format.fprintf ppf "%-12s %5d %8.3g %8.3g %8.3g %8.3g %8.3g %8.3g %8.3g" v.label
    v.count v.min v.lo95 v.q1 v.median v.q3 v.hi95 v.max

let height = 20

let render_ascii violins =
  match violins with
  | [] -> ""
  | _ ->
      let lo =
        List.fold_left (fun acc v -> Float.min acc v.min) infinity violins
      in
      let hi =
        List.fold_left (fun acc v -> Float.max acc v.max) neg_infinity violins
      in
      let lo = Float.max lo 1.0 and hi = Float.max hi 2.0 in
      let log_lo = Float.log10 lo and log_hi = Float.log10 (hi *. 1.05) in
      let row_of v =
        let pos = (Float.log10 (Float.max v 1.0) -. log_lo) /. (log_hi -. log_lo) in
        let r = int_of_float (pos *. float_of_int (height - 1)) in
        if r < 0 then 0 else if r >= height then height - 1 else r
      in
      let col_width = 9 in
      let peak_density v =
        Array.fold_left (fun acc (_, d) -> Float.max acc d) 1e-30 v.density
      in
      let density_at v value =
        (* Nearest density sample on the curve. *)
        let best = ref 0.0 and best_dist = ref infinity in
        Array.iter
          (fun (x, d) ->
            let dist = Float.abs (Float.log10 (Float.max x 1.0) -. Float.log10 (Float.max value 1.0)) in
            if dist < !best_dist then begin
              best_dist := dist;
              best := d
            end)
          v.density;
        !best
      in
      let buf = Buffer.create 1024 in
      for row = height - 1 downto 0 do
        let frac = float_of_int row /. float_of_int (height - 1) in
        let value = Float.pow 10.0 (log_lo +. (frac *. (log_hi -. log_lo))) in
        Buffer.add_string buf (Printf.sprintf "%8.2g |" value);
        List.iter
          (fun v ->
            let cell =
              if row_of v.median = row then "O"
              else if row >= row_of v.q1 && row <= row_of v.q3 then "#"
              else if row >= row_of v.lo95 && row <= row_of v.hi95 then "|"
              else if row >= row_of v.min && row <= row_of v.max then begin
                let d = density_at v value /. peak_density v in
                if d > 0.5 then "=" else if d > 0.15 then "-" else "."
              end
              else " "
            in
            let pad = (col_width - 1) / 2 in
            Buffer.add_string buf (String.make pad ' ');
            Buffer.add_string buf cell;
            Buffer.add_string buf (String.make (col_width - 1 - pad) ' '))
          violins;
        Buffer.add_char buf '\n'
      done;
      Buffer.add_string buf (String.make 9 ' ' ^ "+");
      List.iter (fun _ -> Buffer.add_string buf (String.make col_width '-')) violins;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make 10 ' ');
      List.iter
        (fun v ->
          let label =
            if String.length v.label > col_width - 1 then
              String.sub v.label 0 (col_width - 1)
            else v.label
          in
          Buffer.add_string buf (Printf.sprintf "%-*s" col_width label))
        violins;
      Buffer.add_char buf '\n';
      Buffer.contents buf
