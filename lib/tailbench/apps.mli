(** The tailbench application models (Table 4 of the paper).

    Each application is reduced to the features that matter for kernel-
    interference experiments: user-space CPU per request, the number and
    mix of kernel calls a request makes, per-request disk I/O, and
    sensitivity of its user-space code to virtualisation (cache/TLB
    pollution from VM exits — the paper's explanation for silo).

    Service times are scaled down ~10x from the real suite so that a
    full tail-latency experiment fits the simulation budget; relative
    magnitudes between applications are preserved (DESIGN.md
    substitution table). *)

type t = {
  name : string;
  doc : string;
  service_cpu : Ksurf_util.Dist.t;  (** user CPU per request (ns) *)
  calls_per_request : int;  (** kernel calls per request *)
  mix : (float * string) list;  (** weighted syscall names (from the table) *)
  io_calls : (string * int) list;
      (** calls issued once per request with a fixed size argument
          (shore's log writes + syncs) *)
  virt_cpu_penalty : float;
      (** user-CPU multiplier when running inside a VM (>= 1) *)
}

val all : t list
(** xapian, masstree, moses, sphinx, img-dnn, specjbb, silo, shore. *)

val by_name : string -> t option
val names : string list

val mean_service_estimate : t -> float
(** Estimated native mean service time (ns): user CPU + kernel calls at
    uncontended cost + I/O.  Used to set client rates for ~75%% target
    utilisation, as the paper configures its clients. *)
