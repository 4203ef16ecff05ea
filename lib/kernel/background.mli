(** Background kernel activity.

    Every kernel instance runs housekeeping daemons whose critical
    sections collide with system calls: the journal commit thread, the
    page reclaim daemon (kswapd), the scheduler load balancer, and the
    cgroup statistics flusher.  Their hold times scale with the
    instance's surface area — more cores mean more runqueues to balance,
    more memory means longer reclaim scans, more tenants mean more dirty
    journal metadata — which is precisely how a reduction in surface
    area reduces tail variability without any change to the workload. *)

val start : Instance.t -> unit
(** Spawn the daemons on the instance's engine.  A no-op when
    [enable_background] is false in the instance's {!Config.t} (the
    cgroup flusher also needs [enable_cgroup_accounting] and at least
    one registered cgroup at fire time). *)
