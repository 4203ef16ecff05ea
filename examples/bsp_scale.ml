(* BSP at scale: why small tail differences matter at 64 nodes.

   A bulk-synchronous workload advances at the pace of its slowest
   node.  This example runs one tailbench app on a simulated cluster
   node, synthesises the 64-node barrier-synchronised runtime, and
   shows the straggler amplification that makes most applications
   prefer the virtualised deployment under contention (Figure 4).

     dune exec examples/bsp_scale.exe *)

open Ksurf

let () =
  let app = Option.get (Apps.by_name "xapian") in
  let corpus = Experiments.default_corpus Experiments.Quick in
  let config =
    {
      Cluster.default_config with
      Cluster.nodes_simulated = 1;
      sim_iterations_per_node = 16;
      requests_per_iteration = 15;
    }
  in
  Format.printf "app: %s on %d nodes, %d barrier-synced iterations@.@."
    app.Apps.name Cluster.nodes_total config.Cluster.iterations;
  Format.printf "%-8s %-11s %14s %14s %12s %10s@." "env" "tenancy"
    "node mean iter" "node p99 iter" "straggler x" "runtime";
  List.iter
    (fun (name, kind) ->
      List.iter
        (fun contended ->
          let r =
            Cluster.run ~app ~kind ~contended ~config ~noise_corpus:corpus ()
          in
          Format.printf "%-8s %-11s %14s %14s %12.2f %10s@." name
            (if contended then "contended" else "isolated")
            (Report.duration_ns r.Cluster.node_mean_iter_ns)
            (Report.duration_ns r.Cluster.node_p99_iter_ns)
            r.Cluster.straggler_factor
            (Report.duration_ns r.Cluster.runtime_ns))
        [ false; true ])
    [ ("kvm", Env.Kvm Virt_config.default); ("docker", Env.Docker) ];
  Format.printf
    "@.The straggler column is mean(slowest of 64)/mean(single node): \
     the barrier pays for every node's worst moments.@."
