open Moldable_model
open Moldable_sim
open Moldable_core
open Moldable_util
open Moldable_analysis

let check_float eps = Alcotest.(check (float eps))

let placement ~task_id ~start ~finish ~procs =
  { Schedule.task_id; start; finish; nprocs = Array.length procs; procs }

(* ------------------------------------------------------------- Intervals *)

let hand_schedule () =
  (* P = 10, mu = 0.3: cap = 3, hi = ceil(7) = 7.
     [0,1): 2 busy (I1); [1,2): 5 busy (I2); [2,3): 8 busy (I3). *)
  let b = Schedule.builder ~p:10 ~n:3 in
  Schedule.add b (placement ~task_id:0 ~start:0. ~finish:1. ~procs:[| 0; 1 |]);
  Schedule.add b
    (placement ~task_id:1 ~start:1. ~finish:2. ~procs:[| 0; 1; 2; 3; 4 |]);
  Schedule.add b
    (placement ~task_id:2 ~start:2. ~finish:3.
       ~procs:[| 0; 1; 2; 3; 4; 5; 6; 7 |]);
  Schedule.finalize b

let test_classify_categories () =
  let s = Intervals.classify ~mu:0.3 (hand_schedule ()) in
  check_float 1e-9 "T1" 1. s.Intervals.t1;
  check_float 1e-9 "T2" 1. s.Intervals.t2;
  check_float 1e-9 "T3" 1. s.Intervals.t3;
  check_float 1e-9 "idle" 0. s.Intervals.idle;
  check_float 1e-9 "makespan" 3. s.Intervals.makespan

let test_classify_boundaries () =
  (* Exactly cap busy processors belongs to I2, exactly ceil((1-mu)P) to
     I3. *)
  let b = Schedule.builder ~p:10 ~n:2 in
  Schedule.add b (placement ~task_id:0 ~start:0. ~finish:1. ~procs:[| 0; 1; 2 |]);
  Schedule.add b
    (placement ~task_id:1 ~start:1. ~finish:2.
       ~procs:[| 0; 1; 2; 3; 4; 5; 6 |]);
  let s = Intervals.classify ~mu:0.3 (Schedule.finalize b) in
  check_float 1e-9 "3 busy -> T2" 1. s.Intervals.t2;
  check_float 1e-9 "7 busy -> T3" 1. s.Intervals.t3;
  check_float 1e-9 "T1 empty" 0. s.Intervals.t1

let test_classify_idle_gap () =
  let b = Schedule.builder ~p:4 ~n:2 in
  Schedule.add b (placement ~task_id:0 ~start:0. ~finish:1. ~procs:[| 0 |]);
  Schedule.add b (placement ~task_id:1 ~start:2. ~finish:3. ~procs:[| 0 |]);
  let s = Intervals.classify ~mu:0.3 (Schedule.finalize b) in
  check_float 1e-9 "idle gap" 1. s.Intervals.idle

let test_partition_sums_to_makespan () =
  let rng = Rng.create 42 in
  for _ = 1 to 20 do
    let dag =
      Moldable_workloads.Random_dag.layered ~rng ~n_layers:4 ~width:5
        ~edge_prob:0.3 ~kind:Speedup.Kind_amdahl ()
    in
    let r = Online_scheduler.run ~p:16 dag in
    let s = Intervals.classify ~mu:0.271 r.Sim_core.schedule in
    check_float 1e-6 "T1+T2+T3+idle = T" s.Intervals.makespan
      (s.Intervals.t1 +. s.Intervals.t2 +. s.Intervals.t3 +. s.Intervals.idle)
  done

(* ---------------------------------------------------------------- Lemmas *)

let run_alg1 ~mu ~p dag =
  (Online_scheduler.run ~allocator:(Allocator.algorithm2 ~mu) ~p dag)
    .Sim_core.schedule

let test_lemmas_hold_on_random_graphs () =
  let rng = Rng.create 4242 in
  List.iter
    (fun kind ->
      let mu = Mu.default kind in
      for _ = 1 to 10 do
        let dag =
          Moldable_workloads.Random_dag.layered ~rng ~n_layers:4 ~width:6
            ~edge_prob:0.3 ~kind ()
        in
        let p = Rng.int_range rng 4 64 in
        let sched = run_alg1 ~mu ~p dag in
        let report = Lemmas.verify ~mu ~dag sched in
        if not report.Lemmas.all_hold then
          Alcotest.failf "lemma violated (%s): %s" (Speedup.kind_name kind)
            (Format.asprintf "%a" Lemmas.pp report)
      done)
    [ Speedup.Kind_roofline; Speedup.Kind_communication; Speedup.Kind_amdahl;
      Speedup.Kind_general ]

let test_lemmas_hold_on_adversarial_instances () =
  List.iter
    (fun inst ->
      let result = Moldable_adversary.Instances.run_online inst in
      let report =
        Lemmas.verify ~mu:inst.Moldable_adversary.Instances.mu
          ~dag:inst.Moldable_adversary.Instances.dag
          result.Sim_core.schedule
      in
      if not report.Lemmas.all_hold then
        Alcotest.failf "lemma violated on %s"
          inst.Moldable_adversary.Instances.name)
    [
      Moldable_adversary.Instances.roofline ~p:50;
      Moldable_adversary.Instances.communication ~p:40;
      Moldable_adversary.Instances.amdahl ~k:8;
      Moldable_adversary.Instances.general ~k:8;
    ]

let test_beta_max_within_delta () =
  let rng = Rng.create 7 in
  let mu = Mu.default Speedup.Kind_amdahl in
  let dag =
    Moldable_workloads.Random_dag.layered ~rng ~n_layers:3 ~width:5
      ~edge_prob:0.3 ~kind:Speedup.Kind_amdahl ()
  in
  let sched = run_alg1 ~mu ~p:32 dag in
  let report = Lemmas.verify ~mu ~dag sched in
  Alcotest.(check bool) "beta_max <= delta" true
    (Fcmp.leq ~eps:1e-6 report.Lemmas.beta_max (Mu.delta mu))

let test_alpha_max_bounded_by_lemma8 () =
  (* For Amdahl tasks the initial allocation achieves alpha <= 1 + x*. *)
  let rng = Rng.create 8 in
  let mu = Mu.default Speedup.Kind_amdahl in
  let x_star = mu *. (1. -. mu) /. ((mu *. mu) -. (3. *. mu) +. 1.) in
  let dag =
    Moldable_workloads.Random_dag.independent ~rng ~n:40
      ~kind:Speedup.Kind_amdahl ()
  in
  let sched = run_alg1 ~mu ~p:64 dag in
  let report = Lemmas.verify ~mu ~dag sched in
  Alcotest.(check bool)
    (Printf.sprintf "alpha_max %.3f <= 1 + x* = %.3f" report.Lemmas.alpha_max
       (1. +. x_star))
    true
    (report.Lemmas.alpha_max <= 1. +. x_star +. 1e-6)

(* ------------------------------------------------------------ Experiment *)

let test_run_one_ratio_sane () =
  let rng = Rng.create 9 in
  let dag =
    Moldable_workloads.Random_dag.layered ~rng ~n_layers:3 ~width:4
      ~edge_prob:0.4 ~kind:Speedup.Kind_general ()
  in
  let makespan, ratio = Experiment.run_one ~p:16 Experiment.algorithm1 dag in
  Alcotest.(check bool) "makespan positive" true (makespan > 0.);
  Alcotest.(check bool) "ratio >= 1" true (ratio >= 1. -. 1e-9)

let test_evaluate_shapes () =
  let rng = Rng.create 10 in
  let dags =
    List.init 5 (fun _ ->
        Moldable_workloads.Random_dag.layered ~rng ~n_layers:3 ~width:4
          ~edge_prob:0.4 ~kind:Speedup.Kind_amdahl ())
  in
  let outcomes =
    Experiment.evaluate ~p:16 ~workload:"layered"
      ~policies:Experiment.default_policies dags
  in
  Alcotest.(check int) "one outcome per policy"
    (List.length Experiment.default_policies)
    (List.length outcomes);
  List.iter
    (fun (o : Experiment.outcome) ->
      Alcotest.(check int) "5 ratios" 5 (List.length o.Experiment.ratios);
      Alcotest.(check bool) "ratios >= 1" true
        (List.for_all (fun r -> r >= 1. -. 1e-9) o.Experiment.ratios))
    outcomes

let test_algorithm1_respects_proven_bound () =
  (* The headline empirical claim: on random instances of each family the
     measured ratio never exceeds the Table 1 upper bound. *)
  let rng = Rng.create 11 in
  List.iter
    (fun (kind, bound) ->
      let dags =
        List.init 10 (fun _ ->
            Moldable_workloads.Random_dag.layered ~rng ~n_layers:4 ~width:6
              ~edge_prob:0.3 ~kind ())
      in
      let outcomes =
        Experiment.evaluate ~p:32 ~workload:"layered"
          ~policies:[ Experiment.algorithm1_fixed_mu (Mu.default kind) ]
          dags
      in
      List.iter
        (fun (o : Experiment.outcome) ->
          Alcotest.(check bool)
            (Speedup.kind_name kind ^ " within bound")
            true
            (o.Experiment.summary.Stats.max <= bound +. 1e-9))
        outcomes)
    [
      (Speedup.Kind_roofline, 2.62);
      (Speedup.Kind_communication, 3.61);
      (Speedup.Kind_amdahl, 4.74);
      (Speedup.Kind_general, 5.72);
    ]

(* Parallel evaluation must be invisible: the same sweep run at 1, 2 and 4
   jobs yields outcome-for-outcome identical results (exact float equality,
   not approximate — the per-cell computation is untouched by the fan-out). *)
let prop_evaluate_jobs_invariant =
  QCheck.Test.make ~count:5 ~name:"evaluate is identical at jobs in {1,2,4}"
    QCheck.(pair small_nat (int_range 2 4))
    (fun (seed, width) ->
      let dags =
        let rng = Rng.create (1000 + seed) in
        List.init 4 (fun _ ->
            Moldable_workloads.Random_dag.layered ~rng ~n_layers:3 ~width
              ~edge_prob:0.4 ~kind:Speedup.Kind_amdahl ())
      in
      let eval pool =
        Experiment.evaluate ~pool ~p:16 ~workload:"layered"
          ~policies:Experiment.default_policies dags
      in
      let reference = eval Pool.sequential in
      List.for_all
        (fun jobs ->
          let outcomes = Pool.with_pool ~jobs (fun pool -> eval pool) in
          List.length outcomes = List.length reference
          && List.for_all2 Experiment.equal_outcome outcomes reference)
        [ 1; 2; 4 ])

(* ---------------------------------------------------------------- Report *)

let test_report_renders () =
  let rng = Rng.create 12 in
  let dags =
    List.init 3 (fun _ ->
        Moldable_workloads.Random_dag.independent ~rng ~n:10
          ~kind:Speedup.Kind_amdahl ())
  in
  let outcomes =
    Experiment.evaluate ~p:8 ~workload:"indep"
      ~policies:[ Experiment.algorithm1 ] dags
  in
  let s = Report.table ~bound:4.74 outcomes in
  Alcotest.(check bool) "mentions policy" true
    (String.length s > 0);
  let s2 = Report.table outcomes in
  Alcotest.(check bool) "renders without bound" true (String.length s2 > 0)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "analysis"
    [
      ( "intervals",
        [
          Alcotest.test_case "categories" `Quick test_classify_categories;
          Alcotest.test_case "boundaries" `Quick test_classify_boundaries;
          Alcotest.test_case "idle gap" `Quick test_classify_idle_gap;
          Alcotest.test_case "partition sums" `Quick
            test_partition_sums_to_makespan;
        ] );
      ( "lemmas",
        [
          Alcotest.test_case "hold on random graphs" `Quick
            test_lemmas_hold_on_random_graphs;
          Alcotest.test_case "hold on adversarial instances" `Quick
            test_lemmas_hold_on_adversarial_instances;
          Alcotest.test_case "beta_max <= delta" `Quick test_beta_max_within_delta;
          Alcotest.test_case "alpha_max <= Lemma 8 bound" `Quick
            test_alpha_max_bounded_by_lemma8;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "run_one sane" `Quick test_run_one_ratio_sane;
          Alcotest.test_case "evaluate shapes" `Quick test_evaluate_shapes;
          Alcotest.test_case "Algorithm 1 respects Table 1 bounds" `Quick
            test_algorithm1_respects_proven_bound;
          qt prop_evaluate_jobs_invariant;
        ] );
      ( "report",
        [ Alcotest.test_case "renders" `Quick test_report_renders ] );
    ]
