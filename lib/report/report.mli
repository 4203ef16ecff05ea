(** Terminal rendering of the paper's tables and figure data.

    Figures are rendered as the numeric series a plotting tool would
    consume, plus simple ASCII bars so the shape is visible in a
    terminal. *)

val table :
  header:string list -> rows:string list list -> Format.formatter -> unit
(** Columns sized to the widest cell; first row separated by a rule.
    Raises [Invalid_argument] if a row's width differs from the
    header's. *)

val grouped_bars :
  title:string ->
  unit_label:string ->
  series:string list ->
  (string * float list) list ->
  Format.formatter ->
  unit
(** Grouped bars (Figure 3/4 style): per group label, one bar per
    series.  Raises [Invalid_argument] on ragged input. *)

val duration_ns : float -> string
(** Human duration: "412ns", "3.1us", "42ms", "1.2s". *)
