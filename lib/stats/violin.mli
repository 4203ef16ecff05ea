(** Violin-plot summaries (Figure 2 of the paper).

    A violin is a box plot (median, interquartile range, 95% interval)
    plus a kernel density curve.  We store the numbers a plotting tool
    would need, and can render an ASCII approximation for terminals. *)

type t = {
  label : string;
  count : int;
  median : float;
  q1 : float;
  q3 : float;
  lo95 : float;  (** 2.5th percentile *)
  hi95 : float;  (** 97.5th percentile *)
  min : float;
  max : float;
  density : (float * float) array;  (** log-scale KDE curve, (value, density) *)
}

val of_samples : label:string -> float array -> t
(** Raises [Invalid_argument] on empty input. *)

val pp_row : Format.formatter -> t -> unit
(** One-line numeric summary. *)

val header : string

val render_ascii : t list -> string
(** Side-by-side vertical ASCII violins, 20 rows tall, on a shared log
    axis — the textual stand-in for the paper's Figure 2 panels. *)
