(* Quickstart: build a small moldable task graph by hand, schedule it online
   with the paper's algorithm, and inspect the result.

   Run with: dune exec examples/quickstart.exe *)

open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_core

let () =
  (* A small pipeline: preprocessing fans out to three solver tasks with
     different speedup behaviour, then a reduction gathers the results.

         pre ----> solver0 ---\
             \---> solver1 ----> gather
              \--> solver2 ---/                                           *)
  let tasks =
    [
      Task.make ~label:"pre" ~id:0 (Speedup.Roofline { w = 40.; ptilde = 8 });
      Task.make ~label:"solver0" ~id:1 (Speedup.Amdahl { w = 100.; d = 2. });
      Task.make ~label:"solver1" ~id:2
        (Speedup.Communication { w = 120.; c = 0.5 });
      Task.make ~label:"solver2" ~id:3
        (Speedup.General { w = 90.; ptilde = 24; d = 1.; c = 0.2 });
      Task.make ~label:"gather" ~id:4 (Speedup.Amdahl { w = 30.; d = 5. });
    ]
  in
  let edges = [ (0, 1); (0, 2); (0, 3); (1, 4); (2, 4); (3, 4) ] in
  let dag = Dag.create ~tasks ~edges in

  let p = 32 in
  Printf.printf "Scheduling %d tasks on %d processors with Algorithm 1...\n\n"
    (Dag.n dag) p;

  (* Run the paper's online algorithm (Algorithm 2 allocation, FIFO list
     scheduling). The scheduler discovers tasks online: a task's parameters
     become visible only when its predecessors complete. *)
  let result = Online_scheduler.run ~p dag in
  Validate.check_exn ~dag result.Sim_core.schedule;

  let makespan = Schedule.makespan result.Sim_core.schedule in
  let bounds = Bounds.compute ~p dag in
  Printf.printf "makespan        : %.3f\n" makespan;
  Printf.printf "lower bound     : %.3f  (max of A_min/P = %.3f, C_min = %.3f)\n"
    bounds.Bounds.lower_bound
    (bounds.Bounds.a_min_total /. float_of_int p)
    bounds.Bounds.c_min;
  Printf.printf "ratio vs LB     : %.3f  (proven bound for the general model: 5.72)\n"
    (makespan /. bounds.Bounds.lower_bound);
  Printf.printf "avg utilization : %.1f%%\n\n"
    (100. *. Schedule.average_utilization result.Sim_core.schedule);

  (* Per-task allocations chosen by Algorithm 2. *)
  Printf.printf "allocations:\n";
  List.iter
    (fun (pl : Schedule.placement) ->
      let t = Dag.task dag pl.Schedule.task_id in
      Printf.printf "  %-8s %2d procs  [%6.2f, %6.2f]\n" t.Task.label
        pl.Schedule.nprocs pl.Schedule.start pl.Schedule.finish)
    (Schedule.placements result.Sim_core.schedule);

  Printf.printf "\nGantt chart:\n%s\n"
    (Moldable_viz.Gantt.render ~width:72
       ~label:(fun i -> (Dag.task dag i).Task.label)
       result.Sim_core.schedule)
