(* Tests for the decision-level tracer and its consumers: qcheck properties
   over traced runs (span disjointness per processor, platform bounds, one
   decision per task, Tracer.null trace-equivalence), allocator provenance
   consistency, the Chrome trace-event golden export, the empty-run metrics
   guards, the ratio report, the monotonic clock and the Registry-backed
   self-profile. *)

open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_util
open Moldable_core
open Moldable_analysis

(* [Moldable_analysis] carries its own [Metrics]; the run metrics tested
   here are the simulation ones. *)
module Metrics = Moldable_sim.Metrics

let random_dag rng =
  let kind =
    Fixtures.choose rng
      [| Speedup.Kind_roofline; Speedup.Kind_communication;
         Speedup.Kind_amdahl; Speedup.Kind_general |]
  in
  Moldable_workloads.Random_dag.layered ~rng ~n_layers:4 ~width:5
    ~edge_prob:0.3 ~kind ()

let failure_model rng = function
  | 0 -> Sim_core.never
  | 1 -> Sim_core.bernoulli ~q:(Rng.float rng 0.5)
  | _ -> Sim_core.at_most ~k:(Rng.int_range rng 0 2)

let traced_run ~seed ~model_idx =
  let rng = Rng.create seed in
  let dag = random_dag rng in
  let p = Rng.int_range rng 2 32 in
  let failures = failure_model rng model_idx in
  let tracer = Tracer.create () in
  let result = Online_scheduler.run ~seed ~failures ~tracer ~p dag in
  (dag, p, tracer, result)

(* ------------------------------------- spans never overlap on a processor *)

let prop_spans_disjoint_per_processor =
  QCheck.Test.make
    ~name:"traced spans on any fixed processor never overlap (+/- failures)"
    ~count:60
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 2))
    (fun (seed, model_idx) ->
      let _, p, _, result = traced_run ~seed ~model_idx in
      let per_proc = Array.make p [] in
      List.iter
        (fun (a : Metrics.attempt) ->
          Array.iter
            (fun proc ->
              per_proc.(proc) <-
                (a.Metrics.start, a.Metrics.finish) :: per_proc.(proc))
            a.Metrics.procs)
        (Metrics.attempts result.Sim_core.metrics);
      Array.for_all
        (fun intervals ->
          let sorted = List.sort compare intervals in
          let rec disjoint = function
            | (_, t1) :: ((t0', _) :: _ as rest) ->
              t1 <= t0' +. 1e-9 && disjoint rest
            | _ -> true
          in
          disjoint sorted)
        per_proc)

(* ------------------------------------------- spans respect platform bounds *)

let prop_spans_within_platform =
  QCheck.Test.make
    ~name:"span processor sets are ascending, within [0, P), |procs| = nprocs"
    ~count:60
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 2))
    (fun (seed, model_idx) ->
      let _, p, _, result = traced_run ~seed ~model_idx in
      List.for_all
        (fun (a : Metrics.attempt) ->
          let procs = a.Metrics.procs in
          a.Metrics.nprocs = Array.length procs
          && a.Metrics.nprocs >= 1
          && a.Metrics.nprocs <= p
          && a.Metrics.start <= a.Metrics.finish
          && Array.for_all (fun q -> q >= 0 && q < p) procs
          && Array.for_all
               (fun i -> procs.(i) < procs.(i + 1))
               (Array.init (Array.length procs - 1) Fun.id))
        (Metrics.attempts result.Sim_core.metrics))

(* --------------------------------------------- exactly one decision / task *)

let prop_one_decision_per_task =
  QCheck.Test.make
    ~name:"decision records exist for exactly the n tasks (re-reveals dedup)"
    ~count:60
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 2))
    (fun (seed, model_idx) ->
      let dag, _, tracer, result = traced_run ~seed ~model_idx in
      let n = Dag.n dag in
      Tracer.n_decisions tracer = n
      && List.for_all
           (fun i -> Tracer.decision_for tracer i <> None)
           (List.init n Fun.id)
      (* Spans cover every attempt, successful or not. *)
      && (let m = result.Sim_core.metrics in
          let attempts = Metrics.attempts m in
          List.length attempts = m.Metrics.counters.Metrics.launches
          && List.length
               (List.filter (fun (a : Metrics.attempt) -> a.failed) attempts)
             = m.Metrics.counters.Metrics.retries))

(* ------------------------------------ Tracer.null is observation-equivalent *)

let same_schedule a b =
  Schedule.n a = Schedule.n b
  && List.for_all
       (fun i ->
         let pa = Schedule.placement a i and pb = Schedule.placement b i in
         Float.equal pa.Schedule.start pb.Schedule.start
         && Float.equal pa.Schedule.finish pb.Schedule.finish
         && pa.Schedule.nprocs = pb.Schedule.nprocs
         && pa.Schedule.procs = pb.Schedule.procs)
       (List.init (Schedule.n a) (fun i -> i))

let prop_null_tracer_equivalent =
  QCheck.Test.make
    ~name:"Tracer.null runs are trace-equivalent to traced runs (+/- failures)"
    ~count:60
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 2))
    (fun (seed, model_idx) ->
      let rng = Rng.create seed in
      let dag = random_dag rng in
      let p = Rng.int_range rng 2 32 in
      let model = failure_model rng model_idx in
      let run tracer =
        Online_scheduler.run ~seed ~failures:model ~tracer ~p dag
      in
      let null = run Tracer.null in
      let traced = run (Tracer.create ()) in
      same_schedule null.Sim_core.schedule traced.Sim_core.schedule
      && Metrics.events_from null.Sim_core.metrics 0
         = Metrics.events_from traced.Sim_core.metrics 0
      && Metrics.attempts null.Sim_core.metrics
         = Metrics.attempts traced.Sim_core.metrics
      && (Metrics.queue_depth null.Sim_core.metrics)
         = (Metrics.queue_depth traced.Sim_core.metrics))

(* -------------------------------------------- allocator explain provenance *)

let prop_explain_agrees_with_allocate =
  QCheck.Test.make
    ~name:"Allocator.explain agrees with allocate on every rule"
    ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dag = random_dag rng in
      let p = Rng.int_range rng 2 256 in
      let rules =
        [ Allocator.algorithm2 ~mu:0.2113; Allocator.algorithm2_per_model;
          Allocator.no_cap ~mu:0.3; Allocator.min_time; Allocator.sequential;
          Fixtures.fixed_allocator 7 ]
      in
      List.for_all
        (fun (alloc : Allocator.t) ->
          List.for_all
            (fun i ->
              let task = Dag.task dag i in
              let d = Allocator.explain alloc (Task.analyze ~p task) in
              let final = Allocator.allocate alloc ~p task in
              d.Task.final_alloc = final
              && d.Task.cap_applied
                 = (d.Task.final_alloc < d.Task.p_star)
              && d.Task.final_alloc >= 1
              && d.Task.final_alloc <= p)
            (List.init (Dag.n dag) Fun.id))
        rules)

let test_explain_cap_fields () =
  (* A sequential-heavy Amdahl task on a large platform: Step 1 wants many
     processors, Step 2's ceil(mu P) cap must bite and be recorded. *)
  let p = 100 in
  let mu = 0.2113 in
  let task = Task.make ~id:0 (Speedup.Amdahl { w = 1000.; d = 0.001 }) in
  let a = Task.analyze ~p task in
  let d = Allocator.explain (Allocator.algorithm2 ~mu) a in
  Alcotest.(check int) "cap = ceil(mu P)" 22 d.Task.cap;
  Alcotest.(check bool) "cap applied" true d.Task.cap_applied;
  Alcotest.(check int) "final = cap" 22 d.Task.final_alloc;
  Alcotest.(check bool) "p_star above cap" true (d.Task.p_star > 22);
  Alcotest.(check bool)
    "budget is delta(mu)" true
    (Float.is_finite d.Task.beta_budget && d.Task.beta_budget > 1.);
  Alcotest.(check bool)
    "step 1 probed candidates" true
    (d.Task.candidates_scanned > 0);
  (* Trivial rules carry degenerate provenance. *)
  let d_min = Allocator.explain Allocator.min_time a in
  Alcotest.(check bool)
    "min_time has no budget" true
    (Float.is_nan d_min.Task.beta_budget);
  Alcotest.(check int) "min_time scans nothing" 0
    d_min.Task.candidates_scanned

(* -------------------------------------------------- Tracer recording basics *)

let test_null_tracer_records_nothing () =
  let t = Tracer.null in
  Alcotest.(check bool) "disabled" false (Tracer.enabled t);
  Tracer.record_instant t ~time:0. ~kind:Tracer.Ready ~subject:0;
  Alcotest.(check int) "no decisions" 0 (Tracer.n_decisions t);
  Alcotest.(check (list unit)) "no instants" []
    (List.map ignore (Tracer.instants t));
  Alcotest.(check int) "timed is transparent" 42
    (Tracer.timed t Tracer.Analyze (fun () -> 42))

let test_decision_dedup_keeps_first () =
  let t = Tracer.create () in
  let analysis =
    Task.analyze ~p:8
      (Task.make ~label:"x" ~id:3 (Speedup.Amdahl { w = 8.; d = 1. }))
  in
  let d final =
    {
      Task.analysis; p_star = 4; beta_budget = 2.; step1_bound = 2.; cap = 4;
      cap_applied = false; final_alloc = final; candidates_scanned = 3;
    }
  in
  Tracer.record_decision t (d 4);
  Tracer.record_decision t (d 7);
  Alcotest.(check int) "one record" 1 (Tracer.n_decisions t);
  match Tracer.decision_for t 3 with
  | Some d -> Alcotest.(check int) "first kept" 4 d.Task.final_alloc
  | None -> Alcotest.fail "decision lost"

(* The --explain block of the capped Amdahl decision of
   [test_explain_cap_fields] and of a trivial rule's decision on the same
   analysis, whose NaN budget prints as "-".  Every ratio in it is derived
   from the decision's analysis. *)
let test_pp_decision_golden () =
  let task = Task.make ~id:0 (Speedup.Amdahl { w = 1000.; d = 0.001 }) in
  let a = Task.analyze ~p:100 task in
  let block rule =
    Format.asprintf "%a" Tracer.pp_decision (Allocator.explain rule a)
  in
  Alcotest.(check string) "capped amdahl"
    "task 0 \"t0\"  model=amdahl  P=100\n\
    \  analysis: p_max=100  t_min=10.001  a_min=1000\n\
    \  step 1:   p*=29  alpha(p*)=1.0000  beta(p*)=3.4480  beta budget \
     delta(mu)=3.4647  candidates scanned=7\n\
    \  step 2:   cap=22 -> applied\n\
    \  final:    22 processors  alpha=1.0000  beta=4.5451\n"
    (block (Allocator.algorithm2 ~mu:0.2113));
  Alcotest.(check string) "trivial rule"
    "task 0 \"t0\"  model=amdahl  P=100\n\
    \  analysis: p_max=100  t_min=10.001  a_min=1000\n\
    \  step 1:   p*=100  alpha(p*)=1.0001  beta(p*)=1.0000  beta budget \
     delta(mu)=-  candidates scanned=0\n\
    \  step 2:   cap=100 -> not applied\n\
    \  final:    100 processors  alpha=1.0001  beta=1.0000\n"
    (block Allocator.min_time)

(* ----------------------------------------------- Chrome trace golden export *)

let golden_dag () =
  let tasks =
    [
      Task.make ~label:"a" ~id:0 (Speedup.Roofline { w = 4.; ptilde = 2 });
      Task.make ~label:"b" ~id:1 (Speedup.Amdahl { w = 6.; d = 2. });
      Task.make ~label:"c" ~id:2 (Speedup.Roofline { w = 2.; ptilde = 1 });
    ]
  in
  Dag.create ~tasks ~edges:[ (0, 1); (0, 2) ]

let golden_expected =
  String.concat "\n"
    [
      {|{"displayTimeUnit": "ms", "traceEvents": [|};
      {|  {"ph": "M", "pid": 0, "name": "process_name", "args": {"name": "moldable-sim"}},|};
      {|  {"ph": "M", "pid": 0, "tid": 0, "name": "thread_name", "args": {"name": "procs 0.."}},|};
      {|  {"ph": "M", "pid": 0, "tid": 0, "name": "thread_sort_index", "args": {"sort_index": 0}},|};
      {|  {"ph": "M", "pid": 0, "tid": 1, "name": "thread_name", "args": {"name": "procs 1.."}},|};
      {|  {"ph": "M", "pid": 0, "tid": 1, "name": "thread_sort_index", "args": {"sort_index": 1}},|};
      {|  {"name": "a#1", "cat": "attempt", "ph": "X", "pid": 0, "tid": 0, "ts": 0, "dur": 2000000, "args": {"task": 0, "attempt": 1, "nprocs": 2, "procs": "0-1", "outcome": "completed"}},|};
      {|  {"name": "b#1", "cat": "attempt", "ph": "X", "pid": 0, "tid": 0, "ts": 2000000, "dur": 8000000, "args": {"task": 1, "attempt": 1, "nprocs": 1, "procs": "0", "outcome": "completed"}},|};
      {|  {"name": "c#1", "cat": "attempt", "ph": "X", "pid": 0, "tid": 1, "ts": 2000000, "dur": 2000000, "args": {"task": 2, "attempt": 1, "nprocs": 1, "procs": "1", "outcome": "completed"}},|};
      {|  {"name": "ready a", "cat": "scheduler", "ph": "i", "pid": 0, "tid": 0, "s": "p", "ts": 0},|};
      {|  {"name": "ready b", "cat": "scheduler", "ph": "i", "pid": 0, "tid": 0, "s": "p", "ts": 2000000},|};
      {|  {"name": "ready c", "cat": "scheduler", "ph": "i", "pid": 0, "tid": 0, "s": "p", "ts": 2000000},|};
      {|  {"name": "free processors", "ph": "C", "pid": 0, "ts": 0, "args": {"free": 2}},|};
      {|  {"name": "free processors", "ph": "C", "pid": 0, "ts": 2000000, "args": {"free": 2}},|};
      {|  {"name": "free processors", "ph": "C", "pid": 0, "ts": 4000000, "args": {"free": 3}},|};
      {|  {"name": "free processors", "ph": "C", "pid": 0, "ts": 10000000, "args": {"free": 4}},|};
      {|  {"name": "ready queue", "ph": "C", "pid": 0, "ts": 0, "args": {"depth": 0}},|};
      {|  {"name": "ready queue", "ph": "C", "pid": 0, "ts": 2000000, "args": {"depth": 0}},|};
      {|  {"name": "ready queue", "ph": "C", "pid": 0, "ts": 4000000, "args": {"depth": 0}},|};
      {|  {"name": "ready queue", "ph": "C", "pid": 0, "ts": 10000000, "args": {"depth": 0}}|};
      {|]}|};
      "";
    ]

let golden_export () =
  let dag = golden_dag () in
  let tracer = Tracer.create () in
  let r = Online_scheduler.run ~tracer ~p:4 dag in
  Moldable_viz.Chrome_trace.of_run
    ~label:(fun i -> (Dag.task dag i).Task.label)
    tracer r.Sim_core.metrics

let test_chrome_golden () =
  Alcotest.(check string) "byte-stable export" golden_expected (golden_export ())

let test_chrome_deterministic () =
  Alcotest.(check string)
    "two runs, identical bytes" (golden_export ()) (golden_export ())

(* Failures, a deferred release and stalls: the first attempt of every
   task fails ([at_most ~k:1]), task d is released at 1.5, and on P = 3
   the two-processor tasks a and d each wait once with one processor
   free. *)
let golden_faulty_expected =
  String.concat "\n"
    [
      {|{"displayTimeUnit": "ms", "traceEvents": [|};
      {|  {"ph": "M", "pid": 0, "name": "process_name", "args": {"name": "moldable-sim"}},|};
      {|  {"ph": "M", "pid": 0, "tid": 0, "name": "thread_name", "args": {"name": "procs 0.."}},|};
      {|  {"ph": "M", "pid": 0, "tid": 0, "name": "thread_sort_index", "args": {"sort_index": 0}},|};
      {|  {"ph": "M", "pid": 0, "tid": 2, "name": "thread_name", "args": {"name": "procs 2.."}},|};
      {|  {"ph": "M", "pid": 0, "tid": 2, "name": "thread_sort_index", "args": {"sort_index": 2}},|};
      {|  {"name": "a#1", "cat": "attempt", "ph": "X", "pid": 0, "tid": 0, "ts": 0, "dur": 2000000, "args": {"task": 0, "attempt": 1, "nprocs": 2, "procs": "0-1", "outcome": "failed"}},|};
      {|  {"name": "c#1", "cat": "attempt", "ph": "X", "pid": 0, "tid": 2, "ts": 0, "dur": 2000000, "args": {"task": 2, "attempt": 1, "nprocs": 1, "procs": "2", "outcome": "failed"}},|};
      {|  {"name": "c#2", "cat": "attempt", "ph": "X", "pid": 0, "tid": 2, "ts": 2000000, "dur": 2000000, "args": {"task": 2, "attempt": 2, "nprocs": 1, "procs": "2", "outcome": "completed"}},|};
      {|  {"name": "d#1", "cat": "attempt", "ph": "X", "pid": 0, "tid": 0, "ts": 2000000, "dur": 3000000, "args": {"task": 3, "attempt": 1, "nprocs": 2, "procs": "0-1", "outcome": "failed"}},|};
      {|  {"name": "a#2", "cat": "attempt", "ph": "X", "pid": 0, "tid": 0, "ts": 5000000, "dur": 2000000, "args": {"task": 0, "attempt": 2, "nprocs": 2, "procs": "0-1", "outcome": "completed"}},|};
      {|  {"name": "b#1", "cat": "attempt", "ph": "X", "pid": 0, "tid": 2, "ts": 7000000, "dur": 8000000, "args": {"task": 1, "attempt": 1, "nprocs": 1, "procs": "2", "outcome": "failed"}},|};
      {|  {"name": "d#2", "cat": "attempt", "ph": "X", "pid": 0, "tid": 0, "ts": 7000000, "dur": 3000000, "args": {"task": 3, "attempt": 2, "nprocs": 2, "procs": "0-1", "outcome": "completed"}},|};
      {|  {"name": "b#2", "cat": "attempt", "ph": "X", "pid": 0, "tid": 0, "ts": 15000000, "dur": 8000000, "args": {"task": 1, "attempt": 2, "nprocs": 1, "procs": "0", "outcome": "completed"}},|};
      {|  {"name": "ready a", "cat": "scheduler", "ph": "i", "pid": 0, "tid": 0, "s": "p", "ts": 0},|};
      {|  {"name": "ready c", "cat": "scheduler", "ph": "i", "pid": 0, "tid": 0, "s": "p", "ts": 0},|};
      {|  {"name": "deferred d", "cat": "scheduler", "ph": "i", "pid": 0, "tid": 0, "s": "p", "ts": 0},|};
      {|  {"name": "ready d", "cat": "scheduler", "ph": "i", "pid": 0, "tid": 0, "s": "p", "ts": 1500000},|};
      {|  {"name": "ready a", "cat": "scheduler", "ph": "i", "pid": 0, "tid": 0, "s": "p", "ts": 2000000},|};
      {|  {"name": "ready c", "cat": "scheduler", "ph": "i", "pid": 0, "tid": 0, "s": "p", "ts": 2000000},|};
      {|  {"name": "stall", "cat": "scheduler", "ph": "i", "pid": 0, "tid": 0, "s": "p", "ts": 4000000},|};
      {|  {"name": "ready d", "cat": "scheduler", "ph": "i", "pid": 0, "tid": 0, "s": "p", "ts": 5000000},|};
      {|  {"name": "stall", "cat": "scheduler", "ph": "i", "pid": 0, "tid": 0, "s": "p", "ts": 5000000},|};
      {|  {"name": "ready b", "cat": "scheduler", "ph": "i", "pid": 0, "tid": 0, "s": "p", "ts": 7000000},|};
      {|  {"name": "ready b", "cat": "scheduler", "ph": "i", "pid": 0, "tid": 0, "s": "p", "ts": 15000000},|};
      {|  {"name": "free processors", "ph": "C", "pid": 0, "ts": 0, "args": {"free": 0}},|};
      {|  {"name": "free processors", "ph": "C", "pid": 0, "ts": 2000000, "args": {"free": 0}},|};
      {|  {"name": "free processors", "ph": "C", "pid": 0, "ts": 4000000, "args": {"free": 1}},|};
      {|  {"name": "free processors", "ph": "C", "pid": 0, "ts": 5000000, "args": {"free": 1}},|};
      {|  {"name": "free processors", "ph": "C", "pid": 0, "ts": 7000000, "args": {"free": 0}},|};
      {|  {"name": "free processors", "ph": "C", "pid": 0, "ts": 10000000, "args": {"free": 2}},|};
      {|  {"name": "free processors", "ph": "C", "pid": 0, "ts": 15000000, "args": {"free": 2}},|};
      {|  {"name": "free processors", "ph": "C", "pid": 0, "ts": 23000000, "args": {"free": 3}},|};
      {|  {"name": "ready queue", "ph": "C", "pid": 0, "ts": 0, "args": {"depth": 0}},|};
      {|  {"name": "ready queue", "ph": "C", "pid": 0, "ts": 1500000, "args": {"depth": 1}},|};
      {|  {"name": "ready queue", "ph": "C", "pid": 0, "ts": 2000000, "args": {"depth": 1}},|};
      {|  {"name": "ready queue", "ph": "C", "pid": 0, "ts": 4000000, "args": {"depth": 1}},|};
      {|  {"name": "ready queue", "ph": "C", "pid": 0, "ts": 5000000, "args": {"depth": 1}},|};
      {|  {"name": "ready queue", "ph": "C", "pid": 0, "ts": 7000000, "args": {"depth": 0}},|};
      {|  {"name": "ready queue", "ph": "C", "pid": 0, "ts": 10000000, "args": {"depth": 0}},|};
      {|  {"name": "ready queue", "ph": "C", "pid": 0, "ts": 15000000, "args": {"depth": 0}},|};
      {|  {"name": "ready queue", "ph": "C", "pid": 0, "ts": 23000000, "args": {"depth": 0}}|};
      {|]}|};
      "";
    ]

let golden_faulty_export () =
  let tasks =
    [
      Task.make ~label:"a" ~id:0 (Speedup.Roofline { w = 4.; ptilde = 2 });
      Task.make ~label:"b" ~id:1 (Speedup.Amdahl { w = 6.; d = 2. });
      Task.make ~label:"c" ~id:2 (Speedup.Roofline { w = 2.; ptilde = 1 });
      Task.make ~label:"d" ~id:3 (Speedup.Roofline { w = 6.; ptilde = 3 });
    ]
  in
  let dag = Dag.create ~tasks ~edges:[ (0, 1) ] in
  let tracer = Tracer.create () in
  let r =
    Online_scheduler.run ~tracer ~failures:(Sim_core.at_most ~k:1)
      ~release_times:[| 0.; 0.; 0.; 1.5 |] ~p:3 dag
  in
  Moldable_viz.Chrome_trace.of_run
    ~label:(fun i -> (Dag.task dag i).Task.label)
    tracer r.Sim_core.metrics

let test_chrome_golden_faulty () =
  Alcotest.(check string)
    "failed spans, deferred reveal, stalls" golden_faulty_expected
    (golden_faulty_export ())

(* The Chrome export reads the run's attempts, so a live tracer must turn
   lean mode off: the lean, traced run records the same attempts as the
   full one. *)
let test_traced_lean_records_in_full () =
  let rng = Rng.create 3 in
  let dag = random_dag rng in
  let run ~lean =
    Online_scheduler.run ~lean ~tracer:(Tracer.create ()) ~seed:3
      ~failures:(Sim_core.bernoulli ~q:0.3) ~p:6 dag
  in
  let lean = run ~lean:true and full = run ~lean:false in
  Alcotest.(check bool) "attempts recorded" true
    (Metrics.attempts full.Sim_core.metrics <> []);
  Alcotest.(check bool) "same attempts" true
    (Metrics.attempts lean.Sim_core.metrics
     = Metrics.attempts full.Sim_core.metrics)

let test_chrome_escapes_labels () =
  let hostile = "quo\"te\\back\nline\001" in
  let tasks =
    [ Task.make ~label:{|quo"te\back|} ~id:0
        (Speedup.Roofline { w = 1.; ptilde = 1 });
      Task.make ~label:hostile ~id:1
        (Speedup.Amdahl { w = 3.; d = 0.5 }) ]
  in
  let dag = Dag.create ~tasks ~edges:[] in
  let tracer = Tracer.create () in
  let r = Online_scheduler.run ~tracer ~p:2 dag in
  let json =
    Moldable_viz.Chrome_trace.of_run
      ~label:(fun i -> (Dag.task dag i).Task.label)
      tracer r.Sim_core.metrics
  in
  let contains hay needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length hay
      && (String.sub hay i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "quote escaped" true (contains json {|quo\"te\\back|});
  (* Every event, hostile names included, survives the strict parser. *)
  let module Json = Moldable_obs.Json in
  match Json.of_string json with
  | Error e -> Alcotest.fail ("chrome trace does not parse: " ^ e)
  | Ok j ->
    let names =
      List.filter_map
        (fun ev -> Option.bind (Json.member "name" ev) Json.to_str)
        (Option.value ~default:[]
           (Option.bind (Json.member "traceEvents" j) Json.to_list))
    in
    Alcotest.(check bool) "hostile span name round-trips" true
      (List.mem (hostile ^ "#1") names);
    Alcotest.(check bool) "hostile ready marker round-trips" true
      (List.mem ("ready " ^ hostile) names)

(* -------------------------------------------------- empty-run metrics guard *)

let test_empty_dag_metrics_finite () =
  let dag = Dag.create ~tasks:[] ~edges:[] in
  let r = Online_scheduler.run ~p:8 dag in
  let m = r.Sim_core.metrics in
  Alcotest.(check (float 0.)) "mean wait 0" 0. (Metrics.mean_wait m);
  Alcotest.(check (float 0.)) "max wait 0" 0. (Metrics.max_wait m);
  Alcotest.(check (float 0.)) "utilization 0" 0.
    (Metrics.average_utilization m);
  let json = Moldable_obs.Json.to_string (Metrics.to_json m) in
  let lowered = String.lowercase_ascii json in
  let contains hay needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length hay
      && (String.sub hay i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "no nan in JSON" false (contains lowered "nan");
  Alcotest.(check bool) "no inf in JSON" false (contains lowered "inf");
  (match Moldable_obs.Json.of_string json with
  | Ok j ->
    Alcotest.(check bool) "no tasks" true
      (Moldable_obs.Json.member "tasks" j = Some (Moldable_obs.Json.List []))
  | Error e -> Alcotest.fail ("empty-run metrics do not parse: " ^ e));
  (* pp must not raise on the degenerate record either. *)
  ignore (Format.asprintf "%a" Metrics.pp m)

(* ------------------------------------------------------------- ratio report *)

let test_ratio_report_entry () =
  let rng = Rng.create 11 in
  let dag =
    Moldable_workloads.Linalg.cholesky ~rng ~tiles:5 ~kind:Speedup.Kind_amdahl
      ()
  in
  let p = 32 in
  let makespan = Online_scheduler.makespan ~p dag in
  let e = Ratio_report.of_run ~workload:"cholesky" ~p ~makespan dag in
  Alcotest.(check bool) "model detected" true
    (e.Ratio_report.model = Speedup.Kind_amdahl);
  Alcotest.(check (float 1e-9)) "bound is Table 1's 4.74" 4.74
    e.Ratio_report.proven_bound;
  Alcotest.(check bool) "LB = max(area, cp)" true
    (Float.equal e.Ratio_report.lower_bound
       (Float.max e.Ratio_report.area_bound e.Ratio_report.cp_bound));
  Alcotest.(check bool) "ratio >= 1" true (e.Ratio_report.ratio >= 1.);
  Alcotest.(check bool) "within proven bound" true e.Ratio_report.within_bound;
  let summaries = Ratio_report.summarize [ e; e ] in
  Alcotest.(check int) "one group" 1 (List.length summaries);
  let s = List.hd summaries in
  Alcotest.(check int) "two runs" 2 s.Ratio_report.runs;
  Alcotest.(check (float 1e-9)) "worst = mean on equal runs"
    s.Ratio_report.worst s.Ratio_report.mean

let test_ratio_report_empty_dag () =
  let dag = Dag.create ~tasks:[] ~edges:[] in
  let e = Ratio_report.of_run ~workload:"empty" ~p:4 ~makespan:0. dag in
  Alcotest.(check (float 0.)) "ratio defined as 1" 1. e.Ratio_report.ratio;
  Alcotest.(check bool) "mixed/empty has no proven bound" true
    (e.Ratio_report.proven_bound = infinity);
  let json = Moldable_obs.Json.to_string (Ratio_report.to_json [ e ]) in
  let contains hay needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length hay
      && (String.sub hay i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "infinite bound printed as null" true
    (contains json {|"proven_bound": null|});
  match Moldable_obs.Json.of_string json with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("ratio report does not parse: " ^ e)

(* ------------------------------------------------------------------- clock *)

let test_clock_monotonic () =
  let prev = ref (Clock.now ()) in
  for _ = 1 to 1000 do
    let t = Clock.now () in
    Alcotest.(check bool) "non-decreasing" true (t >= !prev);
    prev := t
  done

(* ------------------------------------------------------------ self-profile *)

let phase_hist t name =
  List.find_map
    (fun (m : Moldable_obs.Registry.metric_snap) ->
      match m.ms_value with
      | Moldable_obs.Registry.Hist_v h when m.ms_name = name -> Some h
      | _ -> None)
    (Tracer.profile t)

let test_profile_timers_accumulate () =
  let t = Tracer.create () in
  let r = Tracer.timed t Tracer.Analyze (fun () -> 41 + 1) in
  Alcotest.(check int) "result passes through" 42 r;
  ignore (Tracer.timed t Tracer.Analyze (fun () -> ()));
  (match phase_hist t "moldable_tracer_analyze_seconds" with
  | Some h ->
    Alcotest.(check int) "two calls" 2 h.count;
    Alcotest.(check bool) "total >= max" true (h.sum >= h.hmax)
  | None -> Alcotest.fail "timer lost");
  (* Exceptions still charge the timer. *)
  (try Tracer.timed t Tracer.Allocator (fun () -> failwith "x")
   with Failure _ -> ());
  (match phase_hist t "moldable_tracer_allocator_seconds" with
  | Some h -> Alcotest.(check int) "charged on raise" 1 h.count
  | None -> Alcotest.fail "exception path not charged");
  (* Only charged phases are printed. *)
  let lines =
    String.split_on_char '\n' (Format.asprintf "%a" Tracer.pp_profile t)
    |> List.filter (( <> ) "")
  in
  Alcotest.(check int) "two profile lines" 2 (List.length lines)

(* Regression for the per-domain sharding: concurrent [timed] calls charging
   one phase from several domains must not lose updates. *)
let test_profile_cross_domain () =
  let t = Tracer.create () in
  let domains = 4 and per_domain = 250 in
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Tracer.timed t Tracer.Ready_queue (fun () ->
                  Sys.opaque_identity ())
            done))
  in
  List.iter Domain.join workers;
  match phase_hist t "moldable_tracer_ready_queue_seconds" with
  | None -> Alcotest.fail "timer lost"
  | Some h ->
    Alcotest.(check int) "no update lost" (domains * per_domain) h.count;
    Alcotest.(check bool) "total bounds max" true
      (h.sum >= h.hmax && h.hmax >= 0.)

let test_profile_all_phases () =
  let rng = Rng.create 5 in
  let dag =
    Moldable_workloads.Linalg.cholesky ~rng ~tiles:4 ~kind:Speedup.Kind_amdahl
      ()
  in
  let tracer = Tracer.create () in
  ignore (Online_scheduler.run ~tracer ~p:8 dag);
  let out = Format.asprintf "%a" Tracer.pp_profile tracer in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " printed") true
        (List.exists
           (String.starts_with ~prefix:(name ^ " "))
           (String.split_on_char '\n' out)))
    [ "event-loop"; "launch-round"; "analyze"; "allocator"; "ready-queue" ]

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "tracer"
    [
      ( "properties",
        [
          qt prop_spans_disjoint_per_processor;
          qt prop_spans_within_platform;
          qt prop_one_decision_per_task;
          qt prop_null_tracer_equivalent;
          qt prop_explain_agrees_with_allocate;
        ] );
      ( "allocator provenance",
        [ Alcotest.test_case "cap fields" `Quick test_explain_cap_fields ] );
      ( "recording",
        [
          Alcotest.test_case "null records nothing" `Quick
            test_null_tracer_records_nothing;
          Alcotest.test_case "decision dedup" `Quick
            test_decision_dedup_keeps_first;
          Alcotest.test_case "pp_decision golden" `Quick
            test_pp_decision_golden;
        ] );
      ( "chrome export",
        [
          Alcotest.test_case "golden bytes" `Quick test_chrome_golden;
          Alcotest.test_case "golden bytes with failures and stalls" `Quick
            test_chrome_golden_faulty;
          Alcotest.test_case "traced lean run records in full" `Quick
            test_traced_lean_records_in_full;
          Alcotest.test_case "deterministic" `Quick test_chrome_deterministic;
          Alcotest.test_case "label escaping" `Quick test_chrome_escapes_labels;
        ] );
      ( "metrics guards",
        [
          Alcotest.test_case "empty DAG finite" `Quick
            test_empty_dag_metrics_finite;
        ] );
      ( "ratio report",
        [
          Alcotest.test_case "entry and summary" `Quick test_ratio_report_entry;
          Alcotest.test_case "empty DAG" `Quick test_ratio_report_empty_dag;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotonic" `Quick test_clock_monotonic;
        ] );
      ( "profile",
        [
          Alcotest.test_case "timers" `Quick test_profile_timers_accumulate;
          Alcotest.test_case "cross-domain timers" `Quick
            test_profile_cross_domain;
          Alcotest.test_case "all five phases" `Quick test_profile_all_phases;
        ] );
    ]
