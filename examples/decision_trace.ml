(* Decision tracing: run Algorithm 1 with the structured tracer attached and
   inspect everything it records — allocation provenance (why each task got
   its processor count), execution spans, scheduler instants, the wall-clock
   self-profile, and the competitive-ratio accounting against Table 1.

   Run with: dune exec examples/decision_trace.exe *)

open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_core
open Moldable_analysis

let () =
  let rng = Moldable_util.Rng.create 7 in
  let p = 48 in
  let dag =
    Moldable_workloads.Linalg.cholesky ~rng ~tiles:6 ~kind:Speedup.Kind_amdahl
      ()
  in
  Printf.printf "Tracing Algorithm 1 on Cholesky-6 (%d tasks) with P = %d\n\n"
    (Dag.n dag) p;

  (* Attach a tracer.  A traced run records everything; passing Tracer.null
     (the default) records nothing and costs one branch per hook. *)
  let tracer = Tracer.create () in
  let traced = Online_scheduler.run ~tracer ~p dag in
  let plain = Online_scheduler.run ~p dag in
  Validate.check_exn ~dag traced.Sim_core.schedule;

  (* Tracing is observation-only: the schedule must be identical. *)
  assert (
    Float.equal
      (Schedule.makespan traced.Sim_core.schedule)
      (Schedule.makespan plain.Sim_core.schedule));
  (* Every task gets exactly one decision record and at least one
     execution attempt. *)
  assert (Tracer.n_decisions tracer = Dag.n dag);
  let spans = traced.Sim_core.metrics.Metrics.counters.Metrics.launches in
  assert (spans = Dag.n dag);
  Printf.printf
    "traced = untraced (makespan %.4f); %d decisions, %d spans, %d instants\n\n"
    (Schedule.makespan traced.Sim_core.schedule)
    (Tracer.n_decisions tracer) spans
    (List.length (Tracer.instants tracer));

  (* Provenance of a single allocation: Algorithm 2's two steps. *)
  (match Tracer.decision_for tracer 0 with
  | Some d -> Format.printf "decision for task 0:@.%a@." Tracer.pp_decision d
  | None -> assert false);

  (* Decisions where the ceil(mu P) cap changed the answer are the moments
     Step 2 of Algorithm 2 bites. *)
  let capped =
    List.filter
      (fun (d : Task.decision) -> d.cap_applied)
      (Tracer.decisions tracer)
  in
  Printf.printf "\n%d of %d allocations were capped at ceil(mu P)\n"
    (List.length capped) (Dag.n dag);

  (* The execution timeline as the run's attempts — the spans behind the
     Chrome export. *)
  Printf.printf "\nfirst three execution spans:\n";
  List.iteri
    (fun i (a : Metrics.attempt) ->
      if i < 3 then
        Printf.printf "  task %2d attempt %d: [%7.3f, %7.3f] on %d procs\n"
          a.Metrics.task_id a.Metrics.attempt a.Metrics.start
          a.Metrics.finish a.Metrics.nprocs)
    (Metrics.attempts traced.Sim_core.metrics);

  (* Chrome trace-event export: open in https://ui.perfetto.dev *)
  let json = Moldable_viz.Chrome_trace.of_run tracer traced.Sim_core.metrics in
  Printf.printf "\nChrome trace export: %d bytes of JSON (load in Perfetto)\n"
    (String.length json);

  (* Ratio accounting: the run joined with the Lemma 2 lower bound. *)
  let entry =
    Ratio_report.of_run ~workload:"cholesky" ~p
      ~makespan:(Schedule.makespan traced.Sim_core.schedule)
      dag
  in
  Format.printf "\n%a@." Ratio_report.pp_entry entry;
  assert (entry.Ratio_report.within_bound);

  (* Where the scheduler spent its own wall-clock time. *)
  Format.printf "@.self-profile:@.%a" Tracer.pp_profile tracer
