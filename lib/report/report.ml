let duration_ns v =
  if v < 1e3 then Printf.sprintf "%.0fns" v
  else if v < 1e6 then Printf.sprintf "%.1fus" (v /. 1e3)
  else if v < 1e9 then Printf.sprintf "%.1fms" (v /. 1e6)
  else Printf.sprintf "%.2fs" (v /. 1e9)

let table ~header ~rows ppf =
  List.iter
    (fun row ->
      if List.length row <> List.length header then
        invalid_arg "Report.table: ragged row")
    rows;
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  let print_row cells =
    List.iteri
      (fun i cell -> Format.fprintf ppf "%-*s  " (List.nth widths i) cell)
      cells;
    Format.fprintf ppf "@."
  in
  print_row header;
  Format.fprintf ppf "%s@."
    (String.concat "" (List.map (fun w -> String.make (w + 2) '-') widths));
  List.iter print_row rows

let bar_width = 40

let render_bar ppf value peak =
  let n =
    if peak <= 0.0 then 0
    else int_of_float (value /. peak *. float_of_int bar_width)
  in
  let n = if n > bar_width then bar_width else if n < 0 then 0 else n in
  Format.fprintf ppf "%s" (String.make n '#')

let grouped_bars ~title ~unit_label ~series groups ppf =
  List.iter
    (fun (_, values) ->
      if List.length values <> List.length series then
        invalid_arg "Report.grouped_bars: ragged group")
    groups;
  Format.fprintf ppf "%s (%s)@." title unit_label;
  let peak =
    List.fold_left
      (fun acc (_, vs) -> List.fold_left Float.max acc vs)
      0.0 groups
  in
  let label_width =
    List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 groups
  in
  let series_width =
    List.fold_left (fun acc s -> max acc (String.length s)) 0 series
  in
  List.iter
    (fun (label, values) ->
      List.iteri
        (fun i value ->
          let tag = if i = 0 then label else "" in
          Format.fprintf ppf "  %-*s %-*s %10.2f  " label_width tag series_width
            (List.nth series i) value;
          render_bar ppf value peak;
          Format.fprintf ppf "@.")
        values)
    groups
