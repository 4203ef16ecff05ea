(** Placement policies (ktenant): which isolation boundary every tenant
    of a fleet gets, for its whole life. *)

type klass =
  | Docker  (** shared host kernel + namespaces + a live cgroup *)
  | Kvm  (** private guest kernel behind virtualisation exits *)

type t = Static of klass  (** every tenant gets this class, forever *)

val name : t -> string
