(* Tests for the independent-moldable-task algorithms of the related work
   (Table 2): rigid shelf packing / list scheduling, Turek et al.'s
   2-approximation, and the Ye et al. canonical-allotment transformation. *)

open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_util
open Moldable_indep

let check_float eps = Alcotest.(check (float eps))

let max_time jobs =
  List.fold_left (fun acc j -> Float.max acc j.Rigid.time) 0. jobs

let total_area jobs =
  List.fold_left
    (fun acc j -> acc +. (float_of_int j.Rigid.procs *. j.Rigid.time))
    0. jobs

let indep_dag models =
  Dag.create ~tasks:(List.mapi (fun id m -> Task.make ~id m) models) ~edges:[]

let random_indep rng n =
  let kind =
    Fixtures.choose rng
      [| Speedup.Kind_roofline; Speedup.Kind_communication;
         Speedup.Kind_amdahl; Speedup.Kind_general |]
  in
  Moldable_workloads.Random_dag.independent ~rng ~n ~kind ()

(* ----------------------------------------------------------------- Rigid *)

let test_of_dag () =
  let dag =
    indep_dag
      [ Speedup.Roofline { w = 8.; ptilde = 4 }; Speedup.Amdahl { w = 6.; d = 1. } ]
  in
  let jobs = Rigid.of_dag ~alloc:(fun i -> i + 1) ~p:8 dag in
  (match jobs with
  | [ a; b ] ->
    Alcotest.(check int) "job 0 procs" 1 a.Rigid.procs;
    check_float 1e-9 "job 0 time" 8. a.Rigid.time;
    Alcotest.(check int) "job 1 procs" 2 b.Rigid.procs;
    check_float 1e-9 "job 1 time" 4. b.Rigid.time
  | _ -> Alcotest.fail "expected 2 jobs");
  check_float 1e-9 "max time" 8. (max_time jobs);
  check_float 1e-9 "area" 16. (total_area jobs)

let test_of_dag_rejects_edges () =
  let dag =
    Dag.create
      ~tasks:
        [
          Task.make ~id:0 (Speedup.Roofline { w = 1.; ptilde = 1 });
          Task.make ~id:1 (Speedup.Roofline { w = 1.; ptilde = 1 });
        ]
      ~edges:[ (0, 1) ]
  in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Rigid.of_dag ~alloc:(fun _ -> 1) ~p:2 dag);
       false
     with Invalid_argument _ -> true)

let test_list_schedule_rejects_bad_input () =
  let tasks =
    [
      Task.make ~id:0 (Speedup.Roofline { w = 1.; ptilde = 1 });
      Task.make ~id:1 (Speedup.Roofline { w = 1.; ptilde = 1 });
    ]
  in
  let job id = { Rigid.id; procs = 1; time = 1. } in
  let rejected name ~jobs dag =
    Alcotest.(check bool) name true
      (try
         ignore (Rigid.list_schedule ~p:2 ~jobs dag);
         false
       with Invalid_argument _ -> true)
  in
  rejected "graph with edges" ~jobs:[ job 0; job 1 ]
    (Dag.create ~tasks ~edges:[ (0, 1) ]);
  let indep = Dag.create ~tasks ~edges:[] in
  rejected "job id >= n" ~jobs:[ job 0; job 1; job 2 ] indep;
  rejected "task without a job" ~jobs:[ job 1 ] indep;
  rejected "requirement > P" ~jobs:[ job 0; { (job 1) with procs = 3 } ]
    indep

let test_shelf_pack_small () =
  (* Three jobs on P=4: (2 procs, t=4), (2 procs, t=4), (4 procs, t=2).
     NFDH: shelf 1 holds both t=4 jobs; shelf 2 holds the wide one.
     Makespan 6. *)
  let jobs =
    [
      { Rigid.id = 0; procs = 2; time = 4. };
      { Rigid.id = 1; procs = 2; time = 4. };
      { Rigid.id = 2; procs = 4; time = 2. };
    ]
  in
  let sched = Rigid.shelf_pack ~p:4 ~jobs in
  check_float 1e-9 "makespan" 6. (Schedule.makespan sched);
  let pl2 = Schedule.placement sched 2 in
  check_float 1e-9 "wide job on second shelf" 4. pl2.Schedule.start

let test_shelf_height_bound () =
  (* NFDH makespan <= 2 A/P + t_max. *)
  let rng = Rng.create 100 in
  for _ = 1 to 50 do
    let p = Rng.int_range rng 2 64 in
    let jobs =
      List.init (Rng.int_range rng 1 40) (fun id ->
          {
            Rigid.id;
            procs = Rng.int_range rng 1 p;
            time = Rng.log_uniform rng 0.1 100.;
          })
    in
    let sched = Rigid.shelf_pack ~p ~jobs in
    let bound =
      (2. *. total_area jobs /. float_of_int p) +. max_time jobs
    in
    if not (Fcmp.leq (Schedule.makespan sched) bound) then
      Alcotest.failf "NFDH bound violated: %.3f > %.3f"
        (Schedule.makespan sched) bound
  done

let test_rigid_list_garey_graham_bound () =
  (* List scheduling makespan <= t_max + A/P for rigid jobs. *)
  let rng = Rng.create 101 in
  for _ = 1 to 30 do
    let p = Rng.int_range rng 2 32 in
    let dag = random_indep rng (Rng.int_range rng 1 30) in
    let jobs =
      Rigid.of_dag
        ~alloc:(fun i ->
          let a = Task.analyze ~p (Dag.task dag i) in
          Rng.int_range rng 1 a.Task.p_max)
        ~p dag
    in
    let result = Rigid.list_schedule ~p ~jobs dag in
    Validate.check_exn ~dag result.Sim_core.schedule;
    let w_max =
      List.fold_left (fun acc j -> max acc j.Rigid.procs) 1 jobs
    in
    let bound =
      max_time jobs
      +. (total_area jobs /. float_of_int (p - w_max + 1))
    in
    if not (Fcmp.leq ~eps:1e-6 (Schedule.makespan result.Sim_core.schedule) bound)
    then
      Alcotest.failf "rigid list bound violated: %.4f > %.4f"
        (Schedule.makespan result.Sim_core.schedule)
        bound
  done

(* ----------------------------------------------------------------- Turek *)

let test_turek_single_task () =
  let dag = indep_dag [ Speedup.Amdahl { w = 10.; d = 1. } ] in
  let r = Turek.schedule ~p:10 dag in
  (* Single task: tau* = t_min = 2 and the schedule achieves it. *)
  check_float 1e-9 "tau*" 2. r.Turek.tau_star;
  check_float 1e-9 "makespan" 2. r.Turek.makespan;
  Alcotest.(check int) "allocation" 10 r.Turek.allocations.(0)

let test_turek_feasibility_monotone () =
  let rng = Rng.create 102 in
  let dag = random_indep rng 12 in
  let p = 16 in
  (* If tau is feasible, any larger tau is feasible. *)
  let taus = [ 1.; 5.; 25.; 125.; 625. ] in
  let feas = List.map (fun tau -> Turek.feasible ~p ~tau dag <> None) taus in
  let rec monotone = function
    | true :: (false :: _ as rest) -> false && monotone rest
    | _ :: rest -> monotone rest
    | [] -> true
  in
  Alcotest.(check bool) "monotone" true (monotone feas)

let test_turek_two_approx () =
  let rng = Rng.create 103 in
  for _ = 1 to 30 do
    let p = Rng.int_range rng 2 64 in
    let dag = random_indep rng (Rng.int_range rng 1 40) in
    let r = Turek.schedule ~p dag in
    Validate.check_exn ~dag r.Turek.schedule;
    (* The advertised guarantee: makespan <= 3 tau_star (NFDH backend). *)
    if not (Fcmp.leq ~eps:1e-6 r.Turek.makespan (3. *. r.Turek.tau_star)) then
      Alcotest.failf "3-approximation violated: %.4f > 3 * %.4f"
        r.Turek.makespan r.Turek.tau_star;
    (* tau_star is itself at least the Lemma 2 lower bound contribution of
       any single task: t_min <= tau_star. *)
    for i = 0 to Dag.n dag - 1 do
      let a = Task.analyze ~p (Dag.task dag i) in
      Alcotest.(check bool) "tau* >= t_min" true
        (Fcmp.geq ~eps:1e-6 r.Turek.tau_star a.Task.t_min)
    done
  done

let test_turek_allotment_minimal () =
  (* Each allocation is the smallest meeting the target candidate. *)
  let rng = Rng.create 104 in
  let dag = random_indep rng 10 in
  let p = 32 in
  let r = Turek.schedule ~p dag in
  Array.iteri
    (fun i q ->
      if q > 1 then begin
        let t_smaller = Task.time (Dag.task dag i) (q - 1) in
        (* One fewer processor must miss every tau <= the task's own time at
           q... in particular the chosen execution time is <= tau_star grid
           point; the smaller allocation must exceed the chosen time. *)
        Alcotest.(check bool) "minimal" true
          (t_smaller > Task.time (Dag.task dag i) q)
      end)
    r.Turek.allocations

let test_turek_rejects_edges () =
  let dag =
    Dag.create
      ~tasks:
        [
          Task.make ~id:0 (Speedup.Roofline { w = 1.; ptilde = 1 });
          Task.make ~id:1 (Speedup.Roofline { w = 1.; ptilde = 1 });
        ]
      ~edges:[ (0, 1) ]
  in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Turek.schedule ~p:2 dag);
       false
     with Invalid_argument _ -> true)

(* -------------------------------------------------------------------- Ye *)

let test_canonical_allotment_balances () =
  (* Amdahl w=100 d=1 on P=10: t(q) = 100/q + 1, a(q)/P = (100 + q)/10.
     t(q) decreasing from 101 to 11; a/P from 10.01 to 11; crossing near
     q = 10. *)
  let task = Task.make ~id:0 (Speedup.Amdahl { w = 100.; d = 1. }) in
  let q = Ye.canonical_allotment ~p:10 task in
  Alcotest.(check int) "balanced at P" 10 q

let test_canonical_allotment_seq_task () =
  (* A tiny task should stay sequential: t(1) = 1, a(1)/P = 1/64. *)
  let task = Task.make ~id:0 (Speedup.Roofline { w = 1.; ptilde = 64 }) in
  let p = 64 in
  let q = Ye.canonical_allotment ~p task in
  (* max(t, a/P) = max(1/q, q * (1/q) / 64) = max(1/q, 1/64): any q in
     [8, 64] achieves 1/64... the minimizer is the smallest q with
     1/q <= 1/64, i.e. 64?  1/q decreasing, a/P constant 1/64:
     objective min at q >= 64 -> q = 64; ties break small so exactly 64. *)
  Alcotest.(check int) "q" 64 q

let test_canonical_is_argmin () =
  let rng = Rng.create 105 in
  for _ = 1 to 200 do
    let kind =
      Fixtures.choose rng
        [| Speedup.Kind_roofline; Speedup.Kind_communication;
           Speedup.Kind_amdahl; Speedup.Kind_general |]
    in
    let task = Task.make ~id:0 (Moldable_workloads.Params.random rng kind) in
    let p = Rng.int_range rng 1 256 in
    let a = Task.analyze ~p task in
    let obj q =
      Float.max (Task.time task q) (Task.area task q /. float_of_int p)
    in
    let q = Ye.canonical_allotment ~p task in
    let brute = Moldable_util.Numerics.integer_argmin ~f:obj ~lo:1 ~hi:a.Task.p_max in
    if not (Fcmp.approx (obj q) (obj brute)) then
      Alcotest.failf "canonical allotment suboptimal for %s at P=%d: %d vs %d"
        (Speedup.to_string task.Task.speedup)
        p q brute
  done

let test_ye_run_validates_and_bounded () =
  let rng = Rng.create 106 in
  for _ = 1 to 20 do
    let p = Rng.int_range rng 2 64 in
    let dag = random_indep rng (Rng.int_range rng 1 40) in
    let r = Ye.run ~p dag in
    Validate.check_exn ~dag r.Sim_core.schedule;
    let lb = (Bounds.compute ~p dag).Bounds.lower_bound in
    (* Canonical allotment + list scheduling stays within a small constant
       of the lower bound on independent tasks; 6x is a loose sanity rail
       (Ye et al. prove 16.74 for their full construction). *)
    Alcotest.(check bool) "bounded" true
      (Schedule.makespan r.Sim_core.schedule <= (6. *. lb) +. 1e-9)
  done

let test_ye_with_releases () =
  let rng = Rng.create 107 in
  let dag = random_indep rng 20 in
  let releases = Array.init 20 (fun i -> float_of_int i *. 0.5) in
  let r = Ye.run ~release_times:releases ~p:16 dag in
  Validate.check_exn ~dag r.Sim_core.schedule;
  Array.iteri
    (fun i rel ->
      Alcotest.(check bool) "after release" true
        ((Schedule.placement r.Sim_core.schedule i).Schedule.start >= rel -. 1e-9))
    releases

let test_ye_rejects_edges () =
  let dag =
    Dag.create
      ~tasks:
        [
          Task.make ~id:0 (Speedup.Roofline { w = 1.; ptilde = 1 });
          Task.make ~id:1 (Speedup.Roofline { w = 1.; ptilde = 1 });
        ]
      ~edges:[ (0, 1) ]
  in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Ye.run ~p:2 dag);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------ Cross-algorithm comparison *)

let test_turek_not_worse_than_naive () =
  (* The 2-approximation should never lose to all-sequential allocation by
     more than the theory allows; and it must beat it on parallel-friendly
     instances. *)
  let rng = Rng.create 108 in
  let dag =
    Moldable_workloads.Random_dag.independent ~rng ~n:20
      ~kind:Speedup.Kind_roofline ()
  in
  let p = 8 in
  let turek = (Turek.schedule ~p dag).Turek.makespan in
  let jobs = Rigid.of_dag ~alloc:(fun _ -> 1) ~p dag in
  let seq =
    Schedule.makespan (Rigid.list_schedule ~p ~jobs dag).Sim_core.schedule
  in
  Alcotest.(check bool)
    (Printf.sprintf "turek %.2f <= 2x sequential %.2f" turek seq)
    true
    (turek <= (2. *. seq) +. 1e-9)

let () =
  Alcotest.run "indep"
    [
      ( "rigid",
        [
          Alcotest.test_case "of_dag" `Quick test_of_dag;
          Alcotest.test_case "of_dag rejects edges" `Quick
            test_of_dag_rejects_edges;
          Alcotest.test_case "list_schedule rejects bad input" `Quick
            test_list_schedule_rejects_bad_input;
          Alcotest.test_case "shelf pack small" `Quick test_shelf_pack_small;
          Alcotest.test_case "NFDH height bound" `Quick test_shelf_height_bound;
          Alcotest.test_case "Garey-Graham bound" `Quick
            test_rigid_list_garey_graham_bound;
        ] );
      ( "turek",
        [
          Alcotest.test_case "single task" `Quick test_turek_single_task;
          Alcotest.test_case "feasibility monotone" `Quick
            test_turek_feasibility_monotone;
          Alcotest.test_case "3-approximation guarantee" `Quick
            test_turek_two_approx;
          Alcotest.test_case "minimal allotment" `Quick
            test_turek_allotment_minimal;
          Alcotest.test_case "rejects edges" `Quick test_turek_rejects_edges;
        ] );
      ( "ye",
        [
          Alcotest.test_case "canonical balances" `Quick
            test_canonical_allotment_balances;
          Alcotest.test_case "canonical sequential-ish task" `Quick
            test_canonical_allotment_seq_task;
          Alcotest.test_case "canonical is argmin" `Quick test_canonical_is_argmin;
          Alcotest.test_case "run validates, bounded" `Quick
            test_ye_run_validates_and_bounded;
          Alcotest.test_case "with release times" `Quick test_ye_with_releases;
          Alcotest.test_case "rejects edges" `Quick test_ye_rejects_edges;
        ] );
      ( "comparison",
        [
          Alcotest.test_case "turek vs sequential" `Quick
            test_turek_not_worse_than_naive;
        ] );
    ]
