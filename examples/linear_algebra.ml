(* The paper motivates moldable tasks with numerical linear-algebra kernels:
   this example schedules tiled Cholesky and LU factorization task graphs
   (POTRF/TRSM/SYRK/GEMM under Amdahl's law) and compares the paper's online
   algorithm against the baselines, then verifies the Lemma 3/4/5
   inequalities of the analysis on the produced schedule.

   Run with: dune exec examples/linear_algebra.exe *)

open Moldable_model
open Moldable_graph
open Moldable_util
open Moldable_core
open Moldable_analysis

let () =
  let rng = Rng.create 2022 in
  let p = 64 in
  let tiles = 8 in
  let chol =
    Moldable_workloads.Linalg.cholesky ~rng ~tiles ~kind:Speedup.Kind_amdahl ()
  in
  let lu =
    Moldable_workloads.Linalg.lu ~rng ~tiles:6 ~kind:Speedup.Kind_amdahl ()
  in
  Printf.printf "Tiled Cholesky (%d tiles): %s\n" tiles
    (Format.asprintf "%a" Dag.pp_stats chol);
  Printf.printf "Tiled LU (6 tiles): %s\n\n"
    (Format.asprintf "%a" Dag.pp_stats lu);

  let policies = Experiment.default_policies in
  let outcomes =
    Experiment.evaluate ~p ~workload:"cholesky-8" ~policies [ chol ]
    @ Experiment.evaluate ~p ~workload:"lu-6" ~policies [ lu ]
  in
  print_string (Report.table ~bound:4.74 outcomes);

  (* Instrument the proof's interval framework on the Cholesky run. *)
  let mu = Mu.default Speedup.Kind_amdahl in
  let sched =
    (Online_scheduler.run ~allocator:(Allocator.algorithm2 ~mu) ~p chol)
      .Moldable_sim.Sim_core.schedule
  in
  let report = Lemmas.verify ~mu ~dag:chol sched in
  Printf.printf "\nProof-framework instrumentation (Cholesky, mu = %.3f):\n%s\n"
    mu
    (Format.asprintf "%a" Lemmas.pp report);
  Printf.printf "\nall Lemma inequalities hold: %b\n" report.Lemmas.all_hold
