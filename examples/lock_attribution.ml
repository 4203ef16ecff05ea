(* Lock attribution: find out *which* kernel lock is hurting you, then
   export everything for plotting.

   The paper's §3.3 lists the latent variability sources in a shared
   kernel; this example runs the E10 diagnostic that measures them
   directly, prints the top offenders, and writes the Table-2 data next
   to it as CSV for a plotting tool.

     dune exec examples/lock_attribution.exe *)

open Ksurf
module E = Experiments

let () =
  let ctx = E.context E.Quick in
  let locks = E.Locks.run ctx in
  Format.printf "%a@." E.Locks.pp locks;

  (* The headline comparison: the most contended lock natively, and the
     same lock when each rank has its own kernel. *)
  let worst =
    List.find (fun r -> r.E.Locks.env = "native") locks.E.Locks.rows
  in
  let same_in_vms =
    List.find_opt
      (fun r -> r.E.Locks.env = "kvm-64" && r.E.Locks.lock = worst.E.Locks.lock)
      locks.E.Locks.rows
  in
  (match same_in_vms with
  | Some vm when vm.E.Locks.mean_wait_ns >= 1.0 ->
      Format.printf
        "@.Worst native lock: %s (mean wait %s).  In 64 one-core VMs the \
         same lock waits %s — %.0fx less.@." worst.E.Locks.lock
        (Report.duration_ns worst.E.Locks.mean_wait_ns)
        (Report.duration_ns vm.E.Locks.mean_wait_ns)
        (worst.E.Locks.mean_wait_ns /. vm.E.Locks.mean_wait_ns)
  | Some _ ->
      Format.printf
        "@.Worst native lock: %s (mean wait %s).  In 64 one-core VMs it is \
         simply uncontended.@." worst.E.Locks.lock
        (Report.duration_ns worst.E.Locks.mean_wait_ns)
  | None -> ());

  (* Export the Table-2 comparison for external plotting. *)
  let table2 = E.Breakdown.run E.Breakdown.table2 ctx in
  let dir = Filename.get_temp_dir_name () in
  let files = E.Breakdown.csv ~dir table2 in
  Format.printf "@.CSV written: %s@." (String.concat ", " files)
