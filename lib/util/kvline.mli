(** The text format of fault plans and durability plans: one
    [keyword key=value ...] action per line, an optional [name <n>]
    line, blank lines and [#] comments ignored.

    A plan supplies only its [action] parser, which sees a line's
    keyword and its [key=value] pairs; this module splits lines and
    words, parses the pairs and numbers, and prefixes every error with
    the offending line. *)

type kvs = (string * string) list
(** A line's [key=value] pairs, in order. *)

val parse :
  action:(string -> kvs -> ('a, string) result) ->
  string ->
  (string * 'a list, string) result
(** The plan's name (["unnamed"] without a [name] line) and its
    actions in order, or the first error as [<line>: <message>] with
    the line quoted.  Never raises unless [action] does. *)

val float_of : string -> string -> (float, string) result
(** [float_of key v] parses [v], or fails with [<key>: not a number]. *)

val int_of : string -> string -> (int, string) result
(** [int_of key v] parses [v], or fails with [<key>: not an integer]. *)

val find_float : kvs -> string -> default:float option -> (float, string) result
(** [key]'s value, else [default], else [missing <key>=]. *)

val find_int : kvs -> string -> default:int option -> (int, string) result
