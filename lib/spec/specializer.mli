(** Compile a {!Profile.t} into a {!Spec.t} and wire it into a
    deployment — the closed measure→reduce loop.

    Three reductions come out of one profile:
    - a per-tenant syscall allowlist, installed on the tenant's kernel
      instance and checked by {!Ksurf_env.Env} on every call;
    - a pruned {!Ksurf_kernel.Config.t}: background daemons, timer
      noise, and accounting machinery keyed to categories the profile
      never exercises are switched off (see
      {!Ksurf_kernel.Ops.machinery_of_category});
    - a functional surface-area term, {!Spec.t.reachable}, multiplying
      the structural sharing term in
      {!Ksurf_env.Env.surface_area_of_rank}. *)

val reachable_fraction : allowlist:string list -> float
(** |union of {!Ksurf_syzgen.Coverage.universe_of_call} over the
    allowlist| / |{!Ksurf_syzgen.Coverage.universe}|.  Monotone in the
    allowlist; unknown names contribute nothing. *)

val compile : ?mode:Spec.mode -> Profile.t -> Spec.t
(** [mode] defaults to [Enforce].  Raises [Invalid_argument] on a
    profile with an empty syscall list. *)

val kernel_config : Spec.t -> Ksurf_kernel.Config.t
(** {!Ksurf_kernel.Config.default} with every pruned machinery switched
    off.  Pass as [~kernel_config] to
    {!Ksurf_env.Env.deploy}. *)

val policy : Spec.t -> Ksurf_kernel.Instance.syscall_policy
(** The hashtable-backed allowlist policy a spec compiles to, with a
    fresh denial counter.  {!install} wires this to an instance; the
    kadapt controller hot-swaps it via
    {!Ksurf_env.Env.swap_policy}. *)

val install : Ksurf_env.Env.t -> rank:int -> Spec.t -> unit
(** Install the spec's allowlist as rank [rank]'s syscall policy on
    the instance serving that rank. *)

val install_all : Ksurf_env.Env.t -> Spec.t -> unit
(** {!install} for every rank of the deployment. *)

val denials : Ksurf_env.Env.t -> rank:int -> int
(** Denials charged to [rank]'s policy so far (0 without a policy). *)
