(** Placement / autoscaling policies (ktenant).

    A policy decides which isolation boundary a tenant gets — the
    paper's four deployment kinds — and whether a tenant that keeps
    violating its p99 SLO at maximum replica count is migrated to a
    stronger (smaller-surface-area) boundary. *)

type klass =
  | Native  (** shared host kernel, no cgroup *)
  | Docker  (** shared host kernel + namespaces + a live cgroup *)
  | Kvm  (** private guest kernel behind virtualisation exits *)
  | Multikernel  (** private kspec-pruned kernel at native entry cost *)

type t =
  | Static of klass  (** every tenant gets this class, forever *)
  | Adaptive
      (** start as [Docker]; persistent SLO violators are promoted to a
          private [Multikernel] *)

val name : t -> string
val of_string : string -> t option
val all : t list
val initial_klass : t -> klass

val escalation : t -> klass -> klass option
(** Where a persistently violating tenant migrates next, if anywhere. *)
