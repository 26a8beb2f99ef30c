(* The worst case, executed: the adversarial task graph of Figure 1
   (communication-model parameters of Theorem 6) forces the paper's
   algorithm into a layer-by-layer schedule while a clairvoyant offline
   schedule packs the platform; the measured ratio climbs toward the
   theorem's 3.51 lower bound as P grows.  The two Gantt charts reproduce
   the shapes of Figure 2.

   Run with: dune exec examples/adversarial_instance.exe *)

open Moldable_sim
open Moldable_graph
open Moldable_adversary

let () =
  Printf.printf "Convergence of the measured ratio toward Theorem 6's 3.51:\n\n";
  Printf.printf "  %6s  %10s  %10s  %8s\n" "P" "T(online)" "T(offline)" "ratio";
  List.iter
    (fun p ->
      let inst = Instances.communication ~p in
      let online = Instances.run_online inst in
      let t = Schedule.makespan online.Sim_core.schedule in
      Printf.printf "  %6d  %10.2f  %10.2f  %8.4f\n" p t
        inst.Instances.alternative_makespan
        (t /. inst.Instances.alternative_makespan))
    [ 20; 50; 100; 200; 500; 1000 ];
  let inst = Instances.communication ~p:1000 in
  Printf.printf "  limit (P -> inf): %.4f\n\n" inst.Instances.limit_ratio;

  (* Figure 2 shapes on a small instance. *)
  let small = Instances.communication ~p:16 in
  let online = Instances.run_online small in
  let label i = (Dag.task small.Instances.dag i).Moldable_model.Task.label in
  Printf.printf "Figure 2(a) — the online algorithm's layered schedule:\n%s\n"
    (Moldable_viz.Gantt.render ~width:72 ~legend:false ~label
       online.Sim_core.schedule);
  Printf.printf "Figure 2(b) — the clairvoyant alternative schedule:\n%s\n"
    (Moldable_viz.Gantt.render ~width:72 ~legend:false ~label
       small.Instances.alternative)
