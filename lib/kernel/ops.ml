type lock_ref =
  | Runqueue
  | Tasklist
  | Zone
  | Page_cache_tree
  | Dcache
  | Inode
  | Journal
  | Pipe
  | Msgq_registry
  | Futex_bucket
  | Cred
  | Audit
  | Cgroup_css

type rw_ref = Mmap_sem | Sb_umount

let lock_ref_name = function
  | Runqueue -> "runqueue"
  | Tasklist -> "tasklist"
  | Zone -> "zone"
  | Page_cache_tree -> "page_cache_tree"
  | Dcache -> "dcache"
  | Inode -> "inode"
  | Journal -> "journal"
  | Pipe -> "pipe"
  | Msgq_registry -> "msgq_registry"
  | Futex_bucket -> "futex_bucket"
  | Cred -> "cred"
  | Audit -> "audit"
  | Cgroup_css -> "cgroup_css"

let rw_ref_name = function Mmap_sem -> "mmap_sem" | Sb_umount -> "sb_umount"

let global_lock_refs = [ Tasklist; Zone; Dcache; Journal; Msgq_registry; Audit; Cgroup_css ]

type op =
  | Cpu of float
  | Lock of lock_ref * Ksurf_util.Dist.t
  | With_lock of lock_ref * Ksurf_util.Dist.t * op list
  | Read_lock of rw_ref * Ksurf_util.Dist.t
  | Write_lock of rw_ref * Ksurf_util.Dist.t
  | Dcache_lookup
  | Page_cache_lookup
  | Slab_alloc
  | Page_alloc of int
  | Tlb_shootdown
  | Rcu_sync
  | Block_io of { bytes : int; write : bool }
  | Cgroup_charge
  | Sleep of Ksurf_util.Dist.t

let rec pp_op ppf = function
  | Cpu ns -> Format.fprintf ppf "cpu(%.0fns)" ns
  | Lock (l, _) -> Format.fprintf ppf "lock(%s)" (lock_ref_name l)
  | With_lock (l, _, body) ->
      Format.fprintf ppf "with_lock(%s){%a}" (lock_ref_name l)
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
           pp_op)
        body
  | Read_lock (l, _) -> Format.fprintf ppf "rdlock(%s)" (rw_ref_name l)
  | Write_lock (l, _) -> Format.fprintf ppf "wrlock(%s)" (rw_ref_name l)
  | Dcache_lookup -> Format.pp_print_string ppf "dcache_lookup"
  | Page_cache_lookup -> Format.pp_print_string ppf "page_cache_lookup"
  | Slab_alloc -> Format.pp_print_string ppf "slab_alloc"
  | Page_alloc order -> Format.fprintf ppf "page_alloc(order=%d)" order
  | Tlb_shootdown -> Format.pp_print_string ppf "tlb_shootdown"
  | Rcu_sync -> Format.pp_print_string ppf "rcu_sync"
  | Block_io { bytes; write } ->
      Format.fprintf ppf "block_%s(%dB)" (if write then "write" else "read") bytes
  | Cgroup_charge -> Format.pp_print_string ppf "cgroup_charge"
  | Sleep _ -> Format.pp_print_string ppf "sleep"

let rec total_fixed_cost ops =
  List.fold_left
    (fun acc op ->
      match op with
      | Cpu ns -> acc +. ns
      | With_lock (_, _, body) -> acc +. total_fixed_cost body
      | _ -> acc)
    0.0 ops

(* Kernel machinery that exists to serve specific syscall categories.
   The specializer (lib/spec) prunes every machinery no retained
   category needs — the KASR/unikernel move of compiling subsystems out
   of a workload-specific kernel build. *)
type machinery =
  | Load_balancer  (** periodic runqueue balancing (scheduler) *)
  | Timer_tick  (** the periodic scheduler tick (NO_HZ_FULL when pruned) *)
  | Kswapd  (** background page reclaim *)
  | Tlb_shootdown_m  (** cross-core TLB invalidation broadcasts *)
  | Journal_daemon  (** periodic filesystem journal commits *)
  | Cgroup_accounting_m  (** memcg/io charge path and stat flusher *)

let machinery_name = function
  | Load_balancer -> "load_balancer"
  | Timer_tick -> "timer_tick"
  | Kswapd -> "kswapd"
  | Tlb_shootdown_m -> "tlb_shootdown"
  | Journal_daemon -> "journal_daemon"
  | Cgroup_accounting_m -> "cgroup_accounting"

let all_machinery =
  [
    Load_balancer; Timer_tick; Kswapd; Tlb_shootdown_m; Journal_daemon;
    Cgroup_accounting_m;
  ]

(* A workload that never manages processes runs tickless with no
   balancing; one that never grows its address space needs neither
   reclaim nor shootdowns (memory is fixed at boot, unikernel-style);
   only filesystem users dirty the journal; cgroup controllers charge
   memory and I/O. *)
let machinery_of_category = function
  | Category.Process -> [ Load_balancer; Timer_tick ]
  | Category.Memory -> [ Kswapd; Tlb_shootdown_m; Cgroup_accounting_m ]
  | Category.File_io -> [ Journal_daemon; Cgroup_accounting_m ]
  | Category.Fs_mgmt -> [ Journal_daemon ]
  | Category.Ipc -> []
  | Category.Perm -> []
