(* Cross-cutting quality tests: the randomized offline search, determinism
   of the whole pipeline, equivalence with Feldmann et al.'s roofline rule,
   and the Lemma inequalities under every queue priority (the proofs hold
   for any list order). *)

open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_core
open Moldable_util

(* ------------------------------------------------------ Randomized search *)

let test_search_validates_and_improves () =
  let rng = Rng.create 77 in
  for _ = 1 to 5 do
    let dag =
      Moldable_workloads.Random_dag.layered ~rng ~n_layers:4 ~width:6
        ~edge_prob:0.3 ~kind:Speedup.Kind_general ()
    in
    let p = 24 in
    let search = Offline.randomized_search ~restarts:32 ~rng ~p dag in
    Validate.check_exn ~dag search.Sim_core.schedule;
    (* Never worse than the deterministic first candidate (Algorithm 2
       allotment with bottom-level priority), which is itself included. *)
    let cp =
      Schedule.makespan (Offline.critical_path_list ~p dag).Sim_core.schedule
    in
    let lb = (Bounds.compute ~p dag).Bounds.lower_bound in
    let found = Schedule.makespan search.Sim_core.schedule in
    Alcotest.(check bool) "at least LB" true (found >= lb -. 1e-9);
    Alcotest.(check bool)
      (Printf.sprintf "search %.3f <= cp-list %.3f (+tolerance)" found cp)
      true
      (found <= cp +. 1e-9)
  done

let test_search_single_task_optimal () =
  let dag =
    Dag.create
      ~tasks:[ Task.make ~id:0 (Speedup.Amdahl { w = 10.; d = 1. }) ]
      ~edges:[]
  in
  let rng = Rng.create 1 in
  let r = Offline.randomized_search ~restarts:8 ~rng ~p:10 dag in
  Alcotest.(check (float 1e-9)) "t_min" 2. (Schedule.makespan r.Sim_core.schedule)

(* ------------------------------------------------------------ Determinism *)

let test_pipeline_deterministic () =
  let build () =
    let rng = Rng.create 555 in
    let dag =
      Moldable_workloads.Scientific.montage ~rng ~width:8
        ~kind:Speedup.Kind_communication ()
    in
    (Online_scheduler.run ~p:32 dag).Sim_core.schedule
  in
  let a = build () and b = build () in
  Alcotest.(check int) "same task count" (Schedule.n a) (Schedule.n b);
  for i = 0 to Schedule.n a - 1 do
    let pa = Schedule.placement a i and pb = Schedule.placement b i in
    Alcotest.(check int) "task id" pa.Schedule.task_id pb.Schedule.task_id;
    Alcotest.(check (float 0.)) "start" pa.Schedule.start pb.Schedule.start;
    Alcotest.(check (float 0.)) "finish" pa.Schedule.finish pb.Schedule.finish;
    Alcotest.(check int) "nprocs" pa.Schedule.nprocs pb.Schedule.nprocs;
    Alcotest.(check (array int)) "procs" pa.Schedule.procs pb.Schedule.procs
  done

let test_engine_trace_deterministic () =
  let rng = Rng.create 556 in
  let dag =
    Moldable_workloads.Random_dag.erdos_renyi ~rng ~n:25 ~edge_prob:0.15
      ~kind:Speedup.Kind_general ()
  in
  let run () =
    Metrics.events_from (Online_scheduler.run ~p:16 dag).Sim_core.metrics 0
  in
  Alcotest.(check bool) "same trace" true (run () = run ())

(* --------------------------------------- Feldmann et al. (1998) equivalence *)

let test_algorithm2_matches_feldmann_on_roofline () =
  (* Feldmann et al.'s roofline algorithm virtualizes any job wider than the
     utilization threshold: allocation = min(parallelism, ceil(mu P)).  For
     roofline tasks, Algorithm 2 reduces to exactly that rule (Lemma 6 with
     the Step 2 cap), which is why Theorem 1 retains their 2.618 ratio. *)
  let rng = Rng.create 88 in
  let mu = Mu.default Speedup.Kind_roofline in
  for _ = 1 to 500 do
    let p = Rng.int_range rng 1 512 in
    let ptilde = Rng.int_range rng 1 (2 * p) in
    let w = Rng.log_uniform rng 0.1 1000. in
    let task = Task.make ~id:0 (Speedup.Roofline { w; ptilde }) in
    let ours = Allocator.allocate (Allocator.algorithm2 ~mu) ~p task in
    let feldmann = min (min ptilde p) (Mu.cap ~mu ~p) in
    Alcotest.(check int) "same allocation" feldmann ours
  done

(* ----------------------------------- Lemmas hold under any queue priority *)

let test_lemmas_hold_under_all_priorities () =
  let rng = Rng.create 99 in
  List.iter
    (fun (priority : Priority.t) ->
      let kind = Speedup.Kind_general in
      let mu = Mu.default kind in
      for _ = 1 to 5 do
        let dag =
          Moldable_workloads.Random_dag.layered ~rng ~n_layers:4 ~width:6
            ~edge_prob:0.3 ~kind ()
        in
        let p = Rng.int_range rng 8 64 in
        let sched =
          (Online_scheduler.run ~priority
             ~allocator:(Allocator.algorithm2 ~mu) ~p dag)
            .Sim_core.schedule
        in
        let report = Moldable_analysis.Lemmas.verify ~mu ~dag sched in
        if not report.Moldable_analysis.Lemmas.all_hold then
          Alcotest.failf "lemma violated under %s priority"
            priority.Priority.name
      done)
    Priority.all

(* ------------------------------------------------- Failure engine + alg 1 *)

let test_failure_competitiveness_degrades_gracefully () =
  (* With at-most-k failures per task, the makespan is at most (k+1) times
     the failure-free competitive bound (each attempt is a full re-run). *)
  let rng = Rng.create 111 in
  let kind = Speedup.Kind_amdahl in
  let mu = Mu.default kind in
  let dag =
    Moldable_workloads.Random_dag.layered ~rng ~n_layers:4 ~width:5
      ~edge_prob:0.3 ~kind ()
  in
  let p = 32 in
  let lb = (Bounds.compute ~p dag).Bounds.lower_bound in
  List.iter
    (fun k ->
      let r =
        Sim_core.run
          ~failures:(Sim_core.at_most ~k)
          ~p
          (Online_scheduler.policy ~allocator:(Allocator.algorithm2 ~mu) ~p ())
          dag
      in
      Validate.check_attempts_exn ~dag ~p (Metrics.attempts r.Sim_core.metrics);
      let bound = float_of_int (k + 1) *. 4.74 *. lb in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d within (k+1) * bound" k)
        true
        ((Schedule.makespan r.Sim_core.schedule) <= bound +. 1e-9))
    [ 0; 1; 2; 3 ]

(* ------------------------------------------------------- Power-law model *)

let power_ratio ~p =
  (* Many identical power-law tasks: the allocator's area inflation grows as
     allocation^(1-alpha), so the ratio vs the Lemma 2 bound grows with P —
     the "no constant ratio" phenomenon for models outside the paper. *)
  let n = 64 in
  let tasks =
    List.init n (fun id ->
        Task.make ~id (Speedup.Power { w = 100.; alpha = 0.6 }))
  in
  let dag = Dag.create ~tasks ~edges:[] in
  let makespan = Online_scheduler.makespan ~p dag in
  makespan /. (Bounds.compute ~p dag).Bounds.lower_bound

let test_power_law_ratio_grows () =
  let r_small = power_ratio ~p:32 in
  let r_big = power_ratio ~p:2048 in
  Alcotest.(check bool)
    (Printf.sprintf "ratio grows with P (%.2f -> %.2f)" r_small r_big)
    true
    (r_big > r_small +. 0.5)

let test_power_roundtrip_io () =
  let dag =
    Dag.create
      ~tasks:[ Task.make ~id:0 (Speedup.Power { w = 42.; alpha = 0.75 }) ]
      ~edges:[]
  in
  match Dag_io.to_string dag with
  | Error e -> Alcotest.fail e
  | Ok text -> (
    match Dag_io.of_string text with
    | Error e -> Alcotest.fail e
    | Ok dag' ->
      for p = 1 to 8 do
        Alcotest.(check (float 1e-12))
          (Printf.sprintf "t(%d)" p)
          (Task.time (Dag.task dag 0) p)
          (Task.time (Dag.task dag' 0) p)
      done)

let test_power_scheduling_validates () =
  let rng = Rng.create 444 in
  let dag =
    Moldable_workloads.Random_dag.layered ~rng ~n_layers:4 ~width:5
      ~edge_prob:0.3 ~kind:Speedup.Kind_power ()
  in
  let r = Online_scheduler.run ~p:32 dag in
  Validate.check_exn ~dag r.Sim_core.schedule

(* -------------------------------------------------------------------- CPA *)

let test_cpa_allotment_balances_bounds () =
  (* After CPA terminates, either the critical path is within the average
     area per processor, or every critical task is saturated at p_max. *)
  let rng = Rng.create 222 in
  for _ = 1 to 10 do
    let dag =
      Moldable_workloads.Random_dag.layered ~rng ~n_layers:4 ~width:6
        ~edge_prob:0.3 ~kind:Speedup.Kind_amdahl ()
    in
    let p = 32 in
    let alloc = Cpa.allotment ~p dag in
    let weight i = Task.time (Dag.task dag i) alloc.(i) in
    let path, cp = Paths.longest_path ~weight dag in
    let area =
      Array.to_list alloc
      |> List.mapi (fun i q -> Task.area (Dag.task dag i) q)
      |> List.fold_left ( +. ) 0.
    in
    let saturated =
      List.for_all
        (fun i -> alloc.(i) >= (Task.analyze ~p (Dag.task dag i)).Task.p_max)
        path
    in
    Alcotest.(check bool) "balanced or saturated" true
      (cp <= (area /. float_of_int p) +. 1e-9 || saturated)
  done

let test_cpa_allotment_in_range () =
  let rng = Rng.create 223 in
  let dag =
    Moldable_workloads.Linalg.cholesky ~rng ~tiles:6 ~kind:Speedup.Kind_amdahl ()
  in
  let p = 24 in
  let alloc = Cpa.allotment ~p dag in
  Array.iteri
    (fun i q ->
      let a = Task.analyze ~p (Dag.task dag i) in
      Alcotest.(check bool) "in [1, p_max]" true (q >= 1 && q <= a.Task.p_max))
    alloc

let test_cpa_schedule_validates () =
  let rng = Rng.create 224 in
  for _ = 1 to 5 do
    let dag =
      Moldable_workloads.Random_dag.layered ~rng ~n_layers:5 ~width:6
        ~edge_prob:0.3 ~kind:Speedup.Kind_general ()
    in
    let r = Cpa.schedule ~p:32 dag in
    Validate.check_exn ~dag r.Sim_core.schedule
  done

let test_cpa_single_chain_stays_sequentialish () =
  (* On a pure chain the area bound is tiny, so CPA parallelizes the chain
     tasks up to balance; the schedule is still the serial execution of the
     chain. *)
  let rng = Rng.create 225 in
  let dag = Moldable_workloads.Structured.chain ~rng ~n:5 ~kind:Speedup.Kind_amdahl () in
  let r = Cpa.schedule ~p:16 dag in
  Validate.check_exn ~dag r.Sim_core.schedule;
  (* Serial chain: makespan equals the sum of chosen execution times. *)
  let alloc = Cpa.allotment ~p:16 dag in
  let expected =
    Array.to_list alloc
    |> List.mapi (fun i q -> Task.time (Dag.task dag i) q)
    |> List.fold_left ( +. ) 0.
  in
  Alcotest.(check (float 1e-6)) "serial sum" expected
    (Schedule.makespan r.Sim_core.schedule)

(* --------------------------------------- List-scheduling queue invariant *)

(* The structural fact behind Lemma 4: whenever the utilization is below
   [ceil((1-mu) P)], at least [ceil(mu P)] processors are free, so every
   available task (allocated at most [ceil(mu P)] by Algorithm 2) starts
   immediately — the waiting queue is empty throughout [T1] and [T2].
   Checked on the actual run: no task's waiting window (from its first
   reveal to its start) may overlap an interval of low utilization. *)
let no_wait_below_high_utilization ~mu (result : Sim_core.result) =
  let sched = result.Sim_core.schedule in
  let tasks = Metrics.tasks result.Sim_core.metrics in
  let n = Schedule.n sched in
  (* A lean run records no per-task ready times; without them the check
     would pass vacuously. *)
  if Array.length tasks <> n then
    invalid_arg "no_wait_below_high_utilization: lean result (no ready times)";
  let p = Schedule.p sched in
  (* Guarded ceil, matching Intervals.classify's utilization bands. *)
  let hi = Numerics.iceil_guarded ((1. -. mu) *. float_of_int p) in
  (* Waiting windows: first reveal -> start per task. *)
  let ready i = tasks.(i).Metrics.ready in
  let windows = ref [] in
  for i = 0 to n - 1 do
    let start = sched.Schedule.starts.(i) in
    if start -. ready i > 1e-9 then windows := (ready i, start) :: !windows
  done;
  let low_steps =
    List.filter
      (fun (_, _, busy) -> busy < hi)
      (Schedule.utilization_steps sched)
  in
  List.for_all
    (fun (w0, w1) ->
      List.for_all
        (fun (s0, s1, _) ->
          (* Open-interval overlap beyond tolerance is a violation. *)
          Float.min w1 s1 -. Float.max w0 s0 <= 1e-9)
        low_steps)
    !windows

let test_no_wait_below_high_utilization () =
  let rng = Rng.create 333 in
  List.iter
    (fun kind ->
      let mu = Mu.default kind in
      for _ = 1 to 8 do
        let dag =
          Moldable_workloads.Random_dag.layered ~rng ~n_layers:4 ~width:6
            ~edge_prob:0.3 ~kind ()
        in
        let p = Rng.int_range rng 8 64 in
        let result =
          Online_scheduler.run ~allocator:(Allocator.algorithm2 ~mu) ~p dag
        in
        Alcotest.(check bool) "queue empty in T1/T2" true
          (no_wait_below_high_utilization ~mu result)
      done)
    [ Speedup.Kind_roofline; Speedup.Kind_communication; Speedup.Kind_amdahl;
      Speedup.Kind_general ]

let test_wait_invariant_fails_for_uncapped () =
  (* Sanity that the check has teeth: min-time allocations exceed the cap,
     so tasks can wait even at low utilization.  Find one instance where the
     invariant is indeed violated. *)
  (* Roofline tasks with mixed parallelism degrees: a wide task waits while
     narrow tasks keep utilization low — impossible under Algorithm 2's cap. *)
  let rng = Rng.create 334 in
  let mu = Mu.default Speedup.Kind_roofline in
  let violated = ref false in
  for _ = 1 to 40 do
    if not !violated then begin
      let dag =
        Moldable_workloads.Random_dag.independent ~rng ~n:12
          ~kind:Speedup.Kind_roofline ()
      in
      let result =
        Online_scheduler.run ~allocator:Allocator.min_time ~p:64 dag
      in
      if not (no_wait_below_high_utilization ~mu result)
      then violated := true
    end
  done;
  Alcotest.(check bool) "violation found for min-time" true !violated

let test_wait_invariant_rejects_lean () =
  (* A lean run records no ready times, so the check cannot judge it: it
     must refuse the lean result of an instance whose full run it flags
     rather than pass it vacuously. *)
  let rng = Rng.create 334 in
  let mu = Mu.default Speedup.Kind_roofline in
  let violations = ref 0 in
  for _ = 1 to 40 do
    let dag =
      Moldable_workloads.Random_dag.independent ~rng ~n:12
        ~kind:Speedup.Kind_roofline ()
    in
    let run ~lean =
      Online_scheduler.run ~lean ~allocator:Allocator.min_time ~p:64 dag
    in
    if not (no_wait_below_high_utilization ~mu (run ~lean:false)) then
      incr violations;
    match no_wait_below_high_utilization ~mu (run ~lean:true) with
    | _ -> Alcotest.fail "lean result accepted"
    | exception Invalid_argument _ -> ()
  done;
  Alcotest.(check bool) "full runs still flag min-time" true (!violations > 0)

let () =
  Alcotest.run "quality"
    [
      ( "search",
        [
          Alcotest.test_case "validates and improves" `Quick
            test_search_validates_and_improves;
          Alcotest.test_case "single task optimal" `Quick
            test_search_single_task_optimal;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "pipeline CSV" `Quick test_pipeline_deterministic;
          Alcotest.test_case "engine trace" `Quick
            test_engine_trace_deterministic;
        ] );
      ( "power_law",
        [
          Alcotest.test_case "ratio grows with P" `Quick
            test_power_law_ratio_grows;
          Alcotest.test_case "io roundtrip" `Quick test_power_roundtrip_io;
          Alcotest.test_case "scheduling validates" `Quick
            test_power_scheduling_validates;
        ] );
      ( "cpa",
        [
          Alcotest.test_case "balances bounds" `Quick
            test_cpa_allotment_balances_bounds;
          Alcotest.test_case "allotment in range" `Quick
            test_cpa_allotment_in_range;
          Alcotest.test_case "schedule validates" `Quick
            test_cpa_schedule_validates;
          Alcotest.test_case "chain serial sum" `Quick
            test_cpa_single_chain_stays_sequentialish;
        ] );
      ( "list_invariant",
        [
          Alcotest.test_case "no wait below high utilization" `Quick
            test_no_wait_below_high_utilization;
          Alcotest.test_case "wait invariant rejects lean runs" `Quick
            test_wait_invariant_rejects_lean;
          Alcotest.test_case "check has teeth (min-time violates)" `Quick
            test_wait_invariant_fails_for_uncapped;
        ] );
      ( "theory_links",
        [
          Alcotest.test_case "Feldmann equivalence on roofline" `Quick
            test_algorithm2_matches_feldmann_on_roofline;
          Alcotest.test_case "lemmas hold under all priorities" `Quick
            test_lemmas_hold_under_all_priorities;
          Alcotest.test_case "failure competitiveness degrades gracefully"
            `Quick test_failure_competitiveness_degrades_gracefully;
        ] );
    ]
