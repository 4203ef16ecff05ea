(** A sanitizer finding: one defect (or suspected defect) in the
    simulated kernel's synchronization or the engine's bookkeeping,
    with enough witness context to act on it. *)

type severity = Info | Warning | Error

type t = {
  severity : severity;
  check : string;  (** which analyzer produced it: lockdep, invariants, ... *)
  code : string;  (** stable machine-readable kind: lock-order-cycle, ... *)
  message : string;
  witness : string list;  (** trace excerpt: one line per witness event *)
}

val make :
  severity:severity ->
  check:string ->
  code:string ->
  message:string ->
  ?witness:string list ->
  unit ->
  t

val sort : t list -> t list
(** Stable report order: errors first, then by analyzer, code and
    message. *)

val errors : t list -> t list

val pp : Format.formatter -> t -> unit

val export_csv : path:string -> t list -> unit
