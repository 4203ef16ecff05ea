(** Static interference matrix: which call pairs can contend on the
    same instance-global lock (the Table-3 mechanism), computed from
    static footprints alone.  Striped locks are excluded — they only
    collide on objects tenants explicitly share. *)

type t = {
  classes : (string * string list) list;
      (** instance-global lock class -> calls that can acquire it *)
  pairs : (string * string * string list) list;
      (** interfering call pairs with the classes they share *)
}

val global_classes : string list

val of_table : unit -> t

val interfering_pairs : t -> int
val total_pairs : t -> int

val shared_locks : t -> string -> string -> string list

val pp : Format.formatter -> t -> unit

val csv_header : string list
val csv_rows : t -> string list list
