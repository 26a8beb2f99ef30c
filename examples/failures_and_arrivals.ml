(* The two semi-online settings adjacent to the paper, exercised together:
   (1) tasks released over time (Poisson arrivals of independent moldable
   tasks) and (2) failure-prone execution in which a task must be re-run
   until an attempt succeeds.  Both reuse Algorithm 1 unchanged — the
   allocation rule is stateless, so re-executions are naturally
   re-allocated.

   Run with: dune exec examples/failures_and_arrivals.exe *)

open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_util
open Moldable_core

let () =
  let rng = Rng.create 1234 in
  let p = 32 in

  (* --- Part 1: a stream of independent tasks arriving over time. --- *)
  let n = 40 in
  let dag =
    Moldable_workloads.Random_dag.independent ~rng ~n
      ~kind:Speedup.Kind_general ()
  in
  let releases = Array.make n 0. in
  let clock = ref 0. in
  for i = 0 to n - 1 do
    clock := !clock +. Rng.exponential rng 1.5;
    releases.(i) <- !clock
  done;
  let policy =
    Online_scheduler.policy ~allocator:Allocator.algorithm2_per_model ~p ()
  in
  let result = Sim_core.run ~release_times:releases ~p policy dag in
  Validate.check_exn ~dag result.Sim_core.schedule;
  (* Every run is instrumented by the unified core: counters, utilization
     timeline, queue depth and per-task waits ride along in [result]. *)
  let metrics = result.Sim_core.metrics in
  Printf.printf "Part 1 — %d independent tasks, Poisson arrivals on %d procs\n"
    n p;
  Printf.printf "  last arrival %.2f, makespan %.2f\n" releases.(n - 1)
    (Schedule.makespan result.Sim_core.schedule);
  Printf.printf "  core instrumentation: %s\n"
    (Format.asprintf "%a" Metrics.pp metrics);
  let metrics_file = "failures_and_arrivals_metrics.json" in
  let oc = open_out metrics_file in
  output_string oc (Metrics.to_json metrics);
  close_out oc;
  Printf.printf "  wrote %s\n\n" metrics_file;

  (* --- Part 2: a workflow under silent errors. --- *)
  let wf =
    Moldable_workloads.Scientific.epigenomics ~rng ~lanes:3 ~fanout:6
      ~kind:Speedup.Kind_amdahl ()
  in
  Printf.printf "Part 2 — Epigenomics workflow (%d tasks) under failures\n"
    (Dag.n wf);
  List.iter
    (fun q ->
      let r =
        Sim_core.run ~seed:99
          ~failures:(if q = 0. then Sim_core.never
                     else Sim_core.bernoulli ~q)
          ~p
          (Online_scheduler.policy ~allocator:Allocator.algorithm2_per_model
             ~p ())
          wf
      in
      Validate.check_attempts_exn ~dag:wf ~p r.Sim_core.attempts;
      Printf.printf
        "  q=%.1f: %3d attempts (%2d failed), makespan %8.2f\n" q
        r.Sim_core.n_attempts r.Sim_core.n_failures r.Sim_core.makespan)
    [ 0.0; 0.1; 0.3; 0.5 ];
  print_newline ();
  Printf.printf
    "Failed attempts are re-allocated from scratch by Algorithm 2; \
     precedence\nconstraints bind on the successful attempt of each \
     predecessor.\n"
