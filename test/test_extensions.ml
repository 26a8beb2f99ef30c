(* Tests for the extension features: release times, the failure-resilient
   engine, offline reference schedulers, DAG serialization and run metrics. *)

open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_core
open Moldable_util

let check_float eps = Alcotest.(check (float eps))

let roofline ~w ~ptilde = Speedup.Roofline { w; ptilde }

let unit_tasks n w = List.init n (fun id -> Task.make ~id (roofline ~w ~ptilde:1))

let fifo_fixed ~p alloc =
  Online_scheduler.policy ~allocator:(Allocator.fixed alloc) ~p ()

(* ----------------------------------------------------------- Release times *)

let test_release_delays_source () =
  let dag = Dag.create ~tasks:(unit_tasks 1 2.) ~edges:[] in
  let r =
    Sim_core.run ~release_times:[| 5. |] ~p:2 (fifo_fixed ~p:2 1) dag
  in
  let pl = Schedule.placement r.Sim_core.schedule 0 in
  check_float 1e-9 "starts at release" 5. pl.Schedule.start;
  check_float 1e-9 "makespan" 7. (Schedule.makespan r.Sim_core.schedule)

let test_release_zero_is_default () =
  let dag = Dag.create ~tasks:(unit_tasks 3 1.) ~edges:[] in
  let a = Sim_core.run ~p:4 (fifo_fixed ~p:4 1) dag in
  let b =
    Sim_core.run ~release_times:[| 0.; 0.; 0. |] ~p:4 (fifo_fixed ~p:4 1) dag
  in
  check_float 1e-9 "same makespan"
    (Schedule.makespan a.Sim_core.schedule)
    (Schedule.makespan b.Sim_core.schedule)

let test_release_independent_over_time () =
  (* Three unit tasks released at 0, 1, 2 on one processor: each starts on
     release (no queueing) -> makespan 3. *)
  let dag = Dag.create ~tasks:(unit_tasks 3 1.) ~edges:[] in
  let r =
    Sim_core.run ~release_times:[| 0.; 1.; 2. |] ~p:1 (fifo_fixed ~p:1 1) dag
  in
  List.iteri
    (fun i expected ->
      check_float 1e-9
        (Printf.sprintf "task %d start" i)
        expected
        (Schedule.placement r.Sim_core.schedule i).Schedule.start)
    [ 0.; 1.; 2. ]

let test_release_applies_to_interior_task () =
  (* 0 -> 1 with task 1 released only at t = 10: it must wait for both. *)
  let dag = Dag.create ~tasks:(unit_tasks 2 1.) ~edges:[ (0, 1) ] in
  let r =
    Sim_core.run ~release_times:[| 0.; 10. |] ~p:2 (fifo_fixed ~p:2 1) dag
  in
  check_float 1e-9 "waits for release" 10.
    (Schedule.placement r.Sim_core.schedule 1).Schedule.start

let test_release_precedence_still_binds () =
  (* Released early but predecessor finishes later. *)
  let tasks =
    [
      Task.make ~id:0 (roofline ~w:5. ~ptilde:1);
      Task.make ~id:1 (roofline ~w:1. ~ptilde:1);
    ]
  in
  let dag = Dag.create ~tasks ~edges:[ (0, 1) ] in
  let r =
    Sim_core.run ~release_times:[| 0.; 1. |] ~p:2 (fifo_fixed ~p:2 1) dag
  in
  check_float 1e-9 "waits for predecessor" 5.
    (Schedule.placement r.Sim_core.schedule 1).Schedule.start

let test_release_rejects_bad_input () =
  let dag = Dag.create ~tasks:(unit_tasks 2 1.) ~edges:[] in
  Alcotest.(check bool) "wrong length" true
    (try
       ignore (Sim_core.run ~release_times:[| 0. |] ~p:1 (fifo_fixed ~p:1 1) dag);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative" true
    (try
       ignore
         (Sim_core.run ~release_times:[| 0.; -1. |] ~p:1 (fifo_fixed ~p:1 1) dag);
       false
     with Invalid_argument _ -> true)

let prop_release_times_never_violated =
  QCheck.Test.make ~name:"no task starts before its release time" ~count:50
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dag =
        Moldable_workloads.Random_dag.layered ~rng ~n_layers:3 ~width:4
          ~edge_prob:0.3 ~kind:Speedup.Kind_amdahl ()
      in
      let releases =
        Array.init (Dag.n dag) (fun _ -> Rng.float rng 10.)
      in
      let p = 8 in
      let r =
        Sim_core.run ~release_times:releases ~p
          (Online_scheduler.policy
             ~allocator:Allocator.algorithm2_per_model ~p ())
          dag
      in
      Validate.check_exn ~dag r.Sim_core.schedule;
      Array.for_all
        (fun (i : int) ->
          (Schedule.placement r.Sim_core.schedule i).Schedule.start
          >= releases.(i) -. 1e-9)
        (Array.init (Dag.n dag) (fun i -> i)))

(* ---------------------------------------------------------- Failure engine *)

let test_failures_never_matches_plain_run () =
  let dag = Dag.create ~tasks:(unit_tasks 4 2.) ~edges:[ (0, 1); (0, 2) ] in
  let p = 2 in
  let plain = Sim_core.run ~p (fifo_fixed ~p 1) dag in
  let resilient =
    Sim_core.run ~failures:Sim_core.never ~p (fifo_fixed ~p 1) dag
  in
  Validate.check_attempts_exn ~dag ~p resilient.Sim_core.attempts;
  check_float 1e-9 "same makespan"
    (Schedule.makespan plain.Sim_core.schedule)
    resilient.Sim_core.makespan;
  Alcotest.(check int) "one attempt per task" 4
    resilient.Sim_core.n_attempts;
  Alcotest.(check int) "no failures" 0 resilient.Sim_core.n_failures

let test_failures_at_most_k_exact_makespan () =
  (* One task of duration 2, failing exactly twice: 3 attempts, makespan 6. *)
  let dag = Dag.create ~tasks:(unit_tasks 1 2.) ~edges:[] in
  let r =
    Sim_core.run
      ~failures:(Sim_core.at_most ~k:2)
      ~p:1 (fifo_fixed ~p:1 1) dag
  in
  Validate.check_attempts_exn ~dag ~p:1 r.Sim_core.attempts;
  Alcotest.(check int) "attempts" 3 r.Sim_core.n_attempts;
  Alcotest.(check int) "failures" 2 r.Sim_core.n_failures;
  check_float 1e-9 "makespan" 6. r.Sim_core.makespan

let test_failures_block_successors () =
  (* 0 -> 1; task 0 fails once: task 1 must start only after the successful
     second attempt. *)
  let dag = Dag.create ~tasks:(unit_tasks 2 2.) ~edges:[ (0, 1) ] in
  let failures =
    {
      Sim_core.model_name = "first-attempt-of-0";
      fails = (fun _ ~task_id ~attempt -> task_id = 0 && attempt = 1);
    }
  in
  let r = Sim_core.run ~failures ~p:2 (fifo_fixed ~p:2 1) dag in
  Validate.check_attempts_exn ~dag ~p:2 r.Sim_core.attempts;
  let t1_start =
    List.find
      (fun (a : Sim_core.attempt) -> a.Sim_core.task_id = 1)
      r.Sim_core.attempts
  in
  check_float 1e-9 "successor delayed" 4. t1_start.Sim_core.start

let test_failures_max_attempts_guard () =
  let dag = Dag.create ~tasks:(unit_tasks 1 1.) ~edges:[] in
  let always =
    {
      Sim_core.model_name = "always";
      fails = (fun _ ~task_id:_ ~attempt:_ -> true);
    }
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Sim_core.run ~max_attempts:10 ~failures:always ~p:1
            (fifo_fixed ~p:1 1) dag);
       false
     with Failure _ -> true)

let test_failures_bernoulli_reproducible () =
  let dag = Dag.create ~tasks:(unit_tasks 10 1.) ~edges:[] in
  let run () =
    Sim_core.run ~seed:7
      ~failures:(Sim_core.bernoulli ~q:0.4)
      ~p:4 (fifo_fixed ~p:4 1) dag
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same attempts" a.Sim_core.n_attempts
    b.Sim_core.n_attempts;
  check_float 1e-9 "same makespan" a.Sim_core.makespan
    b.Sim_core.makespan

let test_failures_rate_slows_schedule () =
  let rng = Rng.create 3 in
  let dag =
    Moldable_workloads.Random_dag.independent ~rng ~n:50
      ~kind:Speedup.Kind_amdahl ()
  in
  let p = 16 in
  let mk q =
    (Sim_core.run ~seed:11
       ~failures:(Sim_core.bernoulli ~q)
       ~p
       (Online_scheduler.policy ~allocator:Allocator.algorithm2_per_model ~p ())
       dag)
      .Sim_core.makespan
  in
  let m0 = mk 0.0 and m3 = mk 0.3 and m6 = mk 0.6 in
  Alcotest.(check bool) "monotone in failure rate" true (m0 < m3 && m3 < m6)

let prop_failure_runs_validate =
  QCheck.Test.make ~name:"failure-engine runs always validate" ~count:40
    QCheck.(pair (int_range 0 100_000) (int_range 0 7))
    (fun (seed, tenths) ->
      let rng = Rng.create seed in
      let dag =
        Moldable_workloads.Random_dag.layered ~rng ~n_layers:3 ~width:4
          ~edge_prob:0.3 ~kind:Speedup.Kind_general ()
      in
      let p = 8 in
      let r =
        Sim_core.run ~seed
          ~failures:(Sim_core.bernoulli ~q:(float_of_int tenths /. 10.))
          ~p
          (Online_scheduler.policy ~allocator:Allocator.algorithm2_per_model
             ~p ())
          dag
      in
      Result.is_ok (Validate.check_attempts ~dag ~p r.Sim_core.attempts))

(* --------------------------------------------------------------- Malleable *)

let test_malleable_single_task () =
  (* One task alone gets its p_max throughout: duration = t_min. *)
  let dag =
    Dag.create
      ~tasks:[ Task.make ~id:0 (Speedup.Amdahl { w = 10.; d = 1. }) ]
      ~edges:[]
  in
  let r = Malleable_engine.equal_share ~p:10 dag in
  Malleable_engine.validate_exn ~dag ~p:10 r;
  check_float 1e-9 "t_min" 2. r.Malleable_engine.makespan

let test_malleable_constant_allocation_matches_moldable () =
  (* Two identical linear tasks on P=4: each gets 2 procs the whole time —
     the malleable schedule degenerates to the moldable one. *)
  let tasks =
    List.init 2 (fun id -> Task.make ~id (roofline ~w:8. ~ptilde:2))
  in
  let dag = Dag.create ~tasks ~edges:[] in
  let r = Malleable_engine.equal_share ~p:4 dag in
  Malleable_engine.validate_exn ~dag ~p:4 r;
  check_float 1e-9 "t(2) = 4" 4. r.Malleable_engine.makespan

let test_malleable_reallocates_after_completion () =
  (* Tasks of work 4 and 8 (roofline, ptilde = 4) on P = 4: phase 1 gives 2+2
     (rates 1/2, 1/4); the short one ends at 2 with the long one half done;
     phase 2 gives the long one all 4 procs, finishing 4 units of residual
     work in 1 time unit: makespan 3 < moldable-best 4... *)
  let tasks =
    [
      Task.make ~id:0 (roofline ~w:4. ~ptilde:4);
      Task.make ~id:1 (roofline ~w:8. ~ptilde:4);
    ]
  in
  let dag = Dag.create ~tasks ~edges:[] in
  let r = Malleable_engine.equal_share ~p:4 dag in
  Malleable_engine.validate_exn ~dag ~p:4 r;
  check_float 1e-9 "makespan 3" 3. r.Malleable_engine.makespan;
  Alcotest.(check int) "two phases" 2 (List.length r.Malleable_engine.phases)

let test_malleable_never_beaten_by_moldable_linear () =
  (* For linear (roofline, ptilde >= P) tasks, malleable water-filling is
     work-conserving, so it cannot lose to any moldable list schedule. *)
  let rng = Rng.create 606 in
  for _ = 1 to 20 do
    let n = Rng.int_range rng 1 20 in
    let p = Rng.int_range rng 2 32 in
    let tasks =
      List.init n (fun id ->
          Task.make ~id
            (roofline ~w:(Rng.log_uniform rng 1. 100.) ~ptilde:p))
    in
    let dag = Dag.create ~tasks ~edges:[] in
    let malleable = (Malleable_engine.equal_share ~p dag).Malleable_engine.makespan in
    let moldable = Online_scheduler.makespan ~p dag in
    Alcotest.(check bool)
      (Printf.sprintf "malleable %.3f <= moldable %.3f" malleable moldable)
      true
      (malleable <= moldable +. 1e-6)
  done

let test_malleable_validates_on_random_dags () =
  let rng = Rng.create 607 in
  for _ = 1 to 15 do
    let kind =
      Rng.choose rng
        [| Speedup.Kind_roofline; Speedup.Kind_communication;
           Speedup.Kind_amdahl; Speedup.Kind_general |]
    in
    let dag =
      Moldable_workloads.Random_dag.layered ~rng ~n_layers:4 ~width:5
        ~edge_prob:0.3 ~kind ()
    in
    let p = Rng.int_range rng 2 32 in
    let r = Malleable_engine.equal_share ~p dag in
    match Malleable_engine.validate ~dag ~p r with
    | Ok () -> ()
    | Error es -> Alcotest.failf "invalid: %s" (String.concat "; " es)
  done

let test_malleable_respects_lower_bound () =
  let rng = Rng.create 608 in
  let dag =
    Moldable_workloads.Random_dag.layered ~rng ~n_layers:4 ~width:5
      ~edge_prob:0.3 ~kind:Speedup.Kind_amdahl ()
  in
  let p = 16 in
  let r = Malleable_engine.equal_share ~p dag in
  let lb = (Moldable_graph.Bounds.compute ~p dag).Moldable_graph.Bounds.lower_bound in
  Alcotest.(check bool) "above Lemma 2 bound" true
    (r.Malleable_engine.makespan >= lb -. 1e-6)

(* ----------------------------------------------------------------- Offline *)

let test_offline_cp_list_valid_and_competitive () =
  let rng = Rng.create 5 in
  for _ = 1 to 10 do
    let dag =
      Moldable_workloads.Random_dag.layered ~rng ~n_layers:4 ~width:6
        ~edge_prob:0.3 ~kind:Speedup.Kind_amdahl ()
    in
    let p = 32 in
    let off = Offline.critical_path_list ~p dag in
    Validate.check_exn ~dag off.Sim_core.schedule;
    (* Clairvoyant list scheduling is itself within the Lemma 5 bound. *)
    let lb = (Bounds.compute ~p dag).Bounds.lower_bound in
    Alcotest.(check bool) "reasonable" true
      (Schedule.makespan off.Sim_core.schedule <= 4.74 *. lb +. 1e-9)
  done

let test_offline_prioritizes_critical_path () =
  (* Two ready tasks: a long chain head (id 1) and a short independent task
     (id 0); with one processor the CP scheduler runs the chain head first
     even though it has the larger id. *)
  let tasks =
    [
      Task.make ~id:0 (roofline ~w:1. ~ptilde:1);
      Task.make ~id:1 (roofline ~w:1. ~ptilde:1);
      Task.make ~id:2 (roofline ~w:50. ~ptilde:1);
    ]
  in
  let dag = Dag.create ~tasks ~edges:[ (1, 2) ] in
  let r = Offline.critical_path_list ~allocator:Allocator.sequential ~p:1 dag in
  check_float 1e-9 "chain head first" 0.
    (Schedule.placement r.Sim_core.schedule 1).Schedule.start;
  (* When the head finishes, the revealed chain tail (bottom level 50) again
     outranks the short independent task, which therefore runs last. *)
  check_float 1e-9 "chain tail second" 1.
    (Schedule.placement r.Sim_core.schedule 2).Schedule.start;
  check_float 1e-9 "short task last" 51.
    (Schedule.placement r.Sim_core.schedule 0).Schedule.start

let test_offline_beats_or_matches_online_often () =
  (* Not a theorem, but on wide Amdahl graphs CP priority should help more
     often than not; we assert it never loses by more than 30%. *)
  let rng = Rng.create 6 in
  let worst = ref 1.0 in
  for _ = 1 to 10 do
    let dag =
      Moldable_workloads.Random_dag.layered ~rng ~n_layers:5 ~width:8
        ~edge_prob:0.25 ~kind:Speedup.Kind_amdahl ()
    in
    let p = 32 in
    let online = Online_scheduler.makespan ~p dag in
    let off =
      Schedule.makespan (Offline.critical_path_list ~p dag).Sim_core.schedule
    in
    worst := Float.max !worst (off /. online)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "cp-list within 30%% of online (worst %.3f)" !worst)
    true (!worst <= 1.3)

let test_best_of () =
  let rng = Rng.create 7 in
  let dag =
    Moldable_workloads.Linalg.cholesky ~rng ~tiles:5 ~kind:Speedup.Kind_amdahl ()
  in
  let name, makespan = Offline.best_of ~p:32 ~schedulers:Offline.named dag in
  Alcotest.(check bool) "name is one of the schedulers" true
    (List.mem_assoc name Offline.named);
  Alcotest.(check bool) "positive makespan" true (makespan > 0.);
  (* best_of is at most each individual scheduler. *)
  List.iter
    (fun (_, run) ->
      let m = Schedule.makespan (run ~p:32 dag).Sim_core.schedule in
      Alcotest.(check bool) "minimal" true (makespan <= m +. 1e-9))
    Offline.named

(* ------------------------------------------------------------------ Dag_io *)

let sample_dag () =
  Dag.create
    ~tasks:
      [
        Task.make ~label:"a task" ~id:0 (roofline ~w:4. ~ptilde:2);
        Task.make ~id:1 (Speedup.Communication { w = 9.; c = 0.25 });
        Task.make ~id:2 (Speedup.Amdahl { w = 7.5; d = 0.5 });
        Task.make ~id:3
          (Speedup.General { w = 11.; ptilde = 6; d = 0.1; c = 0.01 });
      ]
    ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ]

let test_io_roundtrip () =
  let dag = sample_dag () in
  match Dag_io.to_string dag with
  | Error e -> Alcotest.fail e
  | Ok text -> (
    match Dag_io.of_string text with
    | Error e -> Alcotest.fail e
    | Ok dag' ->
      Alcotest.(check int) "n" (Dag.n dag) (Dag.n dag');
      Alcotest.(check (list (pair int int))) "edges" (Dag.edges dag)
        (Dag.edges dag');
      for i = 0 to Dag.n dag - 1 do
        for p = 1 to 8 do
          check_float 1e-12
            (Printf.sprintf "t_%d(%d)" i p)
            (Task.time (Dag.task dag i) p)
            (Task.time (Dag.task dag' i) p)
        done
      done)

let test_io_label_sanitized () =
  match Dag_io.to_string (sample_dag ()) with
  | Error e -> Alcotest.fail e
  | Ok text -> (
    match Dag_io.of_string text with
    | Error e -> Alcotest.fail e
    | Ok dag' ->
      Alcotest.(check string) "spaces replaced" "a_task"
        (Dag.task dag' 0).Task.label)

let test_io_rejects_arbitrary () =
  let dag =
    Dag.create
      ~tasks:
        [ Task.make ~id:0 (Speedup.Arbitrary { name = "f"; time = (fun _ -> 1.) }) ]
      ~edges:[]
  in
  Alcotest.(check bool) "arbitrary rejected" true
    (Result.is_error (Dag_io.to_string dag))

let test_io_parse_errors () =
  let cases =
    [
      "task x lbl amdahl 1 1";       (* bad id *)
      "task 0 lbl amdahl one 1";     (* bad float *)
      "task 0 lbl warp 1 1";         (* unknown model *)
      "edge 0";                      (* malformed edge *)
      "frobnicate";                  (* unknown decl *)
      "task 0 lbl amdahl 1 1\nedge 0 5"; (* edge out of range *)
      "task 0 lbl amdahl 0 1";       (* invalid params (w = 0) *)
    ]
  in
  List.iter
    (fun text ->
      match Dag_io.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed input: %s" text)
    cases

(* Structural validation diagnostics must name the offending line — the
   line-less [Dag.create] messages are useless on a 10k-line graph file. *)
let test_io_line_numbered_diagnostics () =
  let expect_error text fragment =
    match Dag_io.of_string text with
    | Ok _ -> Alcotest.failf "accepted invalid input: %s" text
    | Error e ->
      let contains_sub hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec at i =
          i + nn <= nh && (String.sub hay i nn = needle || at (i + 1))
        in
        at 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%S mentions %S" e fragment)
        true (contains_sub e fragment)
  in
  (* Duplicate id: names both declaring lines. *)
  let dup = "task 0 a amdahl 1 1\ntask 1 b amdahl 1 1\ntask 0 c amdahl 1 1" in
  expect_error dup "line 3: duplicate task id 0";
  expect_error dup "first declared at line 1";
  (* Self-edge. *)
  expect_error "task 0 a amdahl 1 1\nedge 0 0" "line 2: self-edge 0 -> 0";
  (* Edge to an undeclared node. *)
  expect_error "task 0 a amdahl 1 1\nedge 0 7"
    "line 2: edge 0 -> 7 references undeclared task 7";
  (* Cycle: names an edge on the cycle. *)
  expect_error
    "task 0 a amdahl 1 1\ntask 1 b amdahl 1 1\ntask 2 c amdahl 1 1\n\
     edge 0 1\nedge 1 2\nedge 2 1"
    "lies on a cycle";
  (* Id gap. *)
  expect_error "task 0 a amdahl 1 1\ntask 4 b amdahl 1 1"
    "line 2: task id 4 out of range";
  (* Non-positive work, via Task.make, still line-numbered. *)
  expect_error "task 0 a amdahl -2 1" "line 1:"

let test_io_declaration_order_free () =
  (* Tasks may be declared in any id order; edges may precede tasks. *)
  let text =
    "edge 1 0\ntask 1 b amdahl 2 1\ntask 0 a amdahl 1 1\n"
  in
  match Dag_io.of_string text with
  | Error e -> Alcotest.fail e
  | Ok dag ->
    Alcotest.(check int) "n" 2 (Dag.n dag);
    Alcotest.(check string) "task 0 label" "a" (Dag.task dag 0).Task.label;
    Alcotest.(check (list (pair int int))) "edge" [ (1, 0) ] (Dag.edges dag)

let test_io_comments_and_blanks () =
  let text = "# header\n\n  \ntask 0 t0 amdahl 2 1\n# trailing\n" in
  match Dag_io.of_string text with
  | Error e -> Alcotest.fail e
  | Ok dag -> Alcotest.(check int) "parsed one task" 1 (Dag.n dag)

let test_io_file_roundtrip () =
  let path = Filename.temp_file "moldable" ".dag" in
  (match Dag_io.to_file path (sample_dag ()) with
  | Error e -> Alcotest.fail e
  | Ok () -> ());
  (match Dag_io.of_file path with
  | Error e -> Alcotest.fail e
  | Ok dag -> Alcotest.(check int) "n" 4 (Dag.n dag));
  Sys.remove path;
  match Dag_io.of_file path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reading a removed file should fail"

(* ----------------------------------------------------------------- Metrics *)

let test_metrics_simple () =
  (* Two unit tasks on one processor: the second waits 1. *)
  let dag = Dag.create ~tasks:(unit_tasks 2 1.) ~edges:[] in
  let r = Sim_core.run ~p:1 (fifo_fixed ~p:1 1) dag in
  let m = r.Sim_core.metrics in
  check_float 1e-9 "makespan" 2. r.Sim_core.makespan;
  check_float 1e-9 "task 0 wait" 0. m.Metrics.tasks.(0).Metrics.wait;
  check_float 1e-9 "task 1 wait" 1. m.Metrics.tasks.(1).Metrics.wait;
  check_float 1e-9 "mean wait" 0.5 (Metrics.mean_wait m);
  check_float 1e-9 "max wait" 1. (Metrics.max_wait m);
  check_float 1e-9 "utilization" 1. (Metrics.average_utilization m)

let test_metrics_chain_response () =
  let dag = Dag.create ~tasks:(unit_tasks 2 1.) ~edges:[ (0, 1) ] in
  let r = Sim_core.run ~p:1 (fifo_fixed ~p:1 1) dag in
  let t1 = r.Sim_core.metrics.Metrics.tasks.(1) in
  (* Task 1 becomes ready at t=1 and runs immediately. *)
  check_float 1e-9 "ready" 1. t1.Metrics.ready;
  check_float 1e-9 "wait" 0. t1.Metrics.wait;
  check_float 1e-9 "response" 1. (t1.Metrics.finish -. t1.Metrics.ready)

let prop_metrics_waits_nonnegative =
  QCheck.Test.make ~name:"waits and responses are non-negative" ~count:50
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dag =
        Moldable_workloads.Random_dag.layered ~rng ~n_layers:4 ~width:5
          ~edge_prob:0.3 ~kind:Speedup.Kind_general ()
      in
      let r = Online_scheduler.run ~p:16 dag in
      Array.for_all
        (fun (tm : Metrics.task_stat) ->
          tm.Metrics.wait >= -1e-9
          && tm.Metrics.finish -. tm.Metrics.ready >= tm.Metrics.wait -. 1e-9)
        r.Sim_core.metrics.Metrics.tasks)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "extensions"
    [
      ( "release_times",
        [
          Alcotest.test_case "delays source" `Quick test_release_delays_source;
          Alcotest.test_case "zero is default" `Quick test_release_zero_is_default;
          Alcotest.test_case "independent over time" `Quick
            test_release_independent_over_time;
          Alcotest.test_case "interior task" `Quick
            test_release_applies_to_interior_task;
          Alcotest.test_case "precedence still binds" `Quick
            test_release_precedence_still_binds;
          Alcotest.test_case "rejects bad input" `Quick
            test_release_rejects_bad_input;
          qt prop_release_times_never_violated;
        ] );
      ( "failure_engine",
        [
          Alcotest.test_case "never = plain run" `Quick
            test_failures_never_matches_plain_run;
          Alcotest.test_case "at-most-k exact" `Quick
            test_failures_at_most_k_exact_makespan;
          Alcotest.test_case "blocks successors" `Quick
            test_failures_block_successors;
          Alcotest.test_case "max attempts guard" `Quick
            test_failures_max_attempts_guard;
          Alcotest.test_case "bernoulli reproducible" `Quick
            test_failures_bernoulli_reproducible;
          Alcotest.test_case "rate slows schedule" `Quick
            test_failures_rate_slows_schedule;
          qt prop_failure_runs_validate;
        ] );
      ( "malleable",
        [
          Alcotest.test_case "single task" `Quick test_malleable_single_task;
          Alcotest.test_case "degenerates to moldable" `Quick
            test_malleable_constant_allocation_matches_moldable;
          Alcotest.test_case "reallocates after completion" `Quick
            test_malleable_reallocates_after_completion;
          Alcotest.test_case "never beaten on linear tasks" `Quick
            test_malleable_never_beaten_by_moldable_linear;
          Alcotest.test_case "validates on random DAGs" `Quick
            test_malleable_validates_on_random_dags;
          Alcotest.test_case "respects Lemma 2 bound" `Quick
            test_malleable_respects_lower_bound;
        ] );
      ( "offline",
        [
          Alcotest.test_case "cp-list valid and bounded" `Quick
            test_offline_cp_list_valid_and_competitive;
          Alcotest.test_case "prioritizes critical path" `Quick
            test_offline_prioritizes_critical_path;
          Alcotest.test_case "competitive with online" `Quick
            test_offline_beats_or_matches_online_often;
          Alcotest.test_case "best_of" `Quick test_best_of;
        ] );
      ( "dag_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "label sanitized" `Quick test_io_label_sanitized;
          Alcotest.test_case "rejects arbitrary" `Quick test_io_rejects_arbitrary;
          Alcotest.test_case "parse errors" `Quick test_io_parse_errors;
          Alcotest.test_case "line-numbered diagnostics" `Quick
            test_io_line_numbered_diagnostics;
          Alcotest.test_case "declaration order free" `Quick
            test_io_declaration_order_free;
          Alcotest.test_case "comments and blanks" `Quick
            test_io_comments_and_blanks;
          Alcotest.test_case "file roundtrip" `Quick test_io_file_roundtrip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "simple" `Quick test_metrics_simple;
          Alcotest.test_case "chain response" `Quick test_metrics_chain_response;
          qt prop_metrics_waits_nonnegative;
        ] );
    ]
