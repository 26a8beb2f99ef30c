open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_util

let check_float = Alcotest.(check (float 1e-9))

let roofline ~w ~ptilde = Speedup.Roofline { w; ptilde }

let dag_of tasks edges = Dag.create ~tasks ~edges

(* ----------------------------------------------------------- Event_queue *)

let test_eq_time_order () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:3. 30;
  Event_queue.add q ~time:1. 10;
  Event_queue.add q ~time:2. 20;
  Alcotest.(check (option (pair (float 0.) int))) "first" (Some (1., 10))
    (Event_queue.pop q);
  Alcotest.(check (option (float 0.))) "next time" (Some 2.)
    (Event_queue.next_time q)

let test_eq_stable_ties () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:1. 1;
  Event_queue.add q ~time:1. 2;
  Event_queue.add q ~time:1. 3;
  match Event_queue.pop_simultaneous q with
  | Some (t, items) ->
    check_float "time" 1. t;
    Alcotest.(check (list int)) "insertion order" [ 1; 2; 3 ] items;
    Alcotest.(check bool) "drained" true (Event_queue.is_empty q)
  | None -> Alcotest.fail "expected events"

let test_eq_simultaneous_partial () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:1. 1;
  Event_queue.add q ~time:2. 2;
  (match Event_queue.pop_simultaneous q with
  | Some (_, items) -> Alcotest.(check int) "only t=1" 1 (List.length items)
  | None -> Alcotest.fail "expected events");
  Alcotest.(check int) "one left" 1 (Event_queue.length q)

let test_eq_rejects_nonfinite () =
  let q = Event_queue.create () in
  Alcotest.check_raises "nan"
    (Invalid_argument "Event_queue.add: time must be finite") (fun () ->
      Event_queue.add q ~time:Float.nan 0)

let test_eq_batches_ulp_apart () =
  (* 0.1 +. 0.2 and 0.3 are the same instant computed along two float paths;
     they differ in the last ulp and must still land in one batch. *)
  let t1 = 0.1 +. 0.2 and t2 = 0.3 in
  Alcotest.(check bool) "premise: not exactly equal" false (Float.equal t1 t2);
  let q = Event_queue.create () in
  Event_queue.add q ~time:t1 1;
  Event_queue.add q ~time:t2 2;
  (match Event_queue.pop_simultaneous q with
  | Some (t, items) ->
    (* The instant is the batch's latest stamp, so callers acting "at" it
       never precede a stamp inside the batch. *)
    check_float "batch at the later stamp" t1 t;
    Alcotest.(check int) "both events in one batch" 2 (List.length items)
  | None -> Alcotest.fail "expected events");
  Alcotest.(check bool) "drained" true (Event_queue.is_empty q)

let test_eq_distinct_times_not_batched () =
  (* The tolerance is relative and tiny: genuinely distinct close times
     stay separate scheduling instants. *)
  let q = Event_queue.create () in
  Event_queue.add q ~time:1.0 1;
  Event_queue.add q ~time:(1.0 +. 1e-9) 2;
  match Event_queue.pop_simultaneous q with
  | Some (_, items) -> Alcotest.(check int) "only one" 1 (List.length items)
  | None -> Alcotest.fail "expected events"

let test_engine_batches_ulp_completions () =
  (* Two independent tasks whose durations are mathematically equal but
     differ in the last ulp (0.1 + 0.2 vs 0.3): their completions form one
     scheduling instant, so a 2-processor successor-free task waiting for
     both processors starts at that instant, not an ulp later with a stale
     free count. *)
  let d1 = 0.1 +. 0.2 and d2 = 0.3 in
  let t0 = Task.make ~id:0 (Speedup.Arbitrary { name = "a"; time = (fun _ -> d1) }) in
  let t1 = Task.make ~id:1 (Speedup.Arbitrary { name = "b"; time = (fun _ -> d2) }) in
  let wide = Task.make ~id:2 (roofline ~w:1. ~ptilde:2) in
  let dag = dag_of [ t0; t1; wide ] [] in
  let policy =
    (* Run the narrow tasks on 1 proc each, the wide one on 2. *)
    {
      Sim_core.name = "test";
      on_ready = (fun ~now:_ _ -> ());
      next_launch =
        (let started = ref [] in
         fun ~now:_ ~free ->
           let next =
             List.find_opt
               (fun (id, alloc) -> (not (List.mem id !started)) && alloc <= free)
               [ (0, 1); (1, 1); (2, 2) ]
           in
           match next with
           | Some (id, alloc) ->
             started := id :: !started;
             Some (id, alloc)
           | None -> None);
    }
  in
  let r = Sim_core.run ~p:2 policy dag in
  let finishes =
    List.filter_map
      (function t, Sim_core.Finish _ -> Some t | _ -> None)
      r.Sim_core.trace
  in
  (match finishes with
  | ta :: tb :: _ ->
    Alcotest.(check bool) "both finishes recorded at one instant" true
      (Float.equal ta tb)
  | _ -> Alcotest.fail "expected the two narrow finishes first");
  let wide_start = (Schedule.placement r.Sim_core.schedule 2).Schedule.start in
  (* The batch instant is its latest stamp (d1 > d2 by one ulp), so the wide
     start cannot precede either recorded finish. *)
  Alcotest.(check bool) "wide task starts at the batch instant" true
    (Float.equal wide_start (Float.max d1 d2));
  Validate.check_exn ~dag r.Sim_core.schedule

(* -------------------------------------------------------------- Platform *)

let test_platform_acquire_release () =
  let pf = Platform.create 8 in
  Alcotest.(check int) "all free" 8 (Platform.free_count pf);
  let a = Platform.acquire pf 3 in
  Alcotest.(check (array int)) "lowest ids" [| 0; 1; 2 |] a;
  Alcotest.(check int) "free" 5 (Platform.free_count pf);
  Platform.release pf a;
  Alcotest.(check int) "all free again" 8 (Platform.free_count pf)

let test_platform_fragmented_acquire () =
  let pf = Platform.create 6 in
  let a = Platform.acquire pf 2 in
  let b = Platform.acquire pf 2 in
  Platform.release pf a;
  let c = Platform.acquire pf 3 in
  (* Holes 0,1 plus 4: ids must be the lowest three free. *)
  Alcotest.(check (array int)) "fills holes" [| 0; 1; 4 |] c;
  Platform.release pf b;
  Platform.release pf c

let test_platform_over_acquire () =
  let pf = Platform.create 2 in
  Alcotest.check_raises "too many"
    (Invalid_argument "Platform.acquire: 3 requested but only 2 free")
    (fun () -> ignore (Platform.acquire pf 3))

let test_platform_double_release () =
  let pf = Platform.create 2 in
  let a = Platform.acquire pf 1 in
  Platform.release pf a;
  Alcotest.check_raises "double release"
    (Invalid_argument "Platform.release: processor 0 is not busy") (fun () ->
      Platform.release pf a)

let test_platform_create_invalid () =
  Alcotest.check_raises "zero procs"
    (Invalid_argument "Platform.create: need at least one processor")
    (fun () -> ignore (Platform.create 0))

let prop_platform_random_ops =
  QCheck.Test.make ~name:"platform free count consistent under random ops"
    ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let p = Rng.int_range rng 1 32 in
      let pf = Platform.create p in
      let held = ref [] in
      let ok = ref true in
      for _ = 1 to 200 do
        if Rng.bool rng && Platform.free_count pf > 0 then begin
          let n = Rng.int_range rng 1 (Platform.free_count pf) in
          held := Platform.acquire pf n :: !held
        end
        else
          match !held with
          | [] -> ()
          | h :: rest ->
            Platform.release pf h;
            held := rest
      done;
      let in_use = List.fold_left (fun acc a -> acc + Array.length a) 0 !held in
      if Platform.free_count pf <> p - in_use then ok := false;
      !ok)

(* -------------------------------------------------------------- Schedule *)

let placement ~task_id ~start ~finish ~procs =
  {
    Schedule.task_id;
    start;
    finish;
    nprocs = Array.length procs;
    procs;
  }

let test_schedule_build_query () =
  let b = Schedule.builder ~p:4 ~n:2 in
  Schedule.add b (placement ~task_id:0 ~start:0. ~finish:2. ~procs:[| 0; 1 |]);
  Schedule.add b (placement ~task_id:1 ~start:2. ~finish:3. ~procs:[| 0 |]);
  let s = Schedule.finalize b in
  check_float "makespan" 3. (Schedule.makespan s);
  Alcotest.(check int) "n" 2 (Schedule.n s);
  check_float "busy area" 5. (Schedule.busy_area s);
  check_float "avg util" (5. /. 12.) (Schedule.average_utilization s)

let test_schedule_rejects_duplicate () =
  let b = Schedule.builder ~p:2 ~n:1 in
  Schedule.add b (placement ~task_id:0 ~start:0. ~finish:1. ~procs:[| 0 |]);
  Alcotest.check_raises "dup" (Invalid_argument "Schedule.add: task 0 placed twice")
    (fun () ->
      Schedule.add b (placement ~task_id:0 ~start:1. ~finish:2. ~procs:[| 0 |]))

let test_schedule_rejects_bad_window () =
  let b = Schedule.builder ~p:2 ~n:1 in
  Alcotest.check_raises "negative duration"
    (Invalid_argument "Schedule.add: task 0 has an ill-formed time window")
    (fun () ->
      Schedule.add b (placement ~task_id:0 ~start:2. ~finish:1. ~procs:[| 0 |]))

let test_schedule_rejects_bad_procs () =
  let b = Schedule.builder ~p:2 ~n:1 in
  Alcotest.check_raises "unsorted procs"
    (Invalid_argument "Schedule.add: task 0 has an ill-formed processor set")
    (fun () ->
      Schedule.add b (placement ~task_id:0 ~start:0. ~finish:1. ~procs:[| 1; 0 |]))

let test_schedule_finalize_missing () =
  let b = Schedule.builder ~p:2 ~n:2 in
  Schedule.add b (placement ~task_id:0 ~start:0. ~finish:1. ~procs:[| 0 |]);
  Alcotest.check_raises "missing"
    (Invalid_argument "Schedule.finalize: task 1 was never placed") (fun () ->
      ignore (Schedule.finalize b))

let test_utilization_steps () =
  let b = Schedule.builder ~p:4 ~n:2 in
  Schedule.add b (placement ~task_id:0 ~start:0. ~finish:2. ~procs:[| 0; 1 |]);
  Schedule.add b (placement ~task_id:1 ~start:1. ~finish:3. ~procs:[| 2 |]);
  let s = Schedule.finalize b in
  Alcotest.(check (list (triple (float 1e-9) (float 1e-9) int)))
    "steps"
    [ (0., 1., 2); (1., 2., 3); (2., 3., 1) ]
    (Schedule.utilization_steps s)

let test_placements_sorted () =
  let b = Schedule.builder ~p:2 ~n:2 in
  Schedule.add b (placement ~task_id:1 ~start:0. ~finish:1. ~procs:[| 1 |]);
  Schedule.add b (placement ~task_id:0 ~start:0.5 ~finish:1. ~procs:[| 0 |]);
  let s = Schedule.finalize b in
  Alcotest.(check (list int)) "by start time" [ 1; 0 ]
    (List.map (fun p -> p.Schedule.task_id) (Schedule.placements s))

(* -------------------------------------------------------------- Validate *)

let two_chain () =
  dag_of
    [
      Task.make ~id:0 (roofline ~w:2. ~ptilde:2);
      Task.make ~id:1 (roofline ~w:1. ~ptilde:1);
    ]
    [ (0, 1) ]

let test_validate_accepts_good () =
  let dag = two_chain () in
  let b = Schedule.builder ~p:2 ~n:2 in
  Schedule.add b (placement ~task_id:0 ~start:0. ~finish:1. ~procs:[| 0; 1 |]);
  Schedule.add b (placement ~task_id:1 ~start:1. ~finish:2. ~procs:[| 0 |]);
  match Validate.check ~dag (Schedule.finalize b) with
  | Ok () -> ()
  | Error es -> Alcotest.failf "unexpected: %s" (String.concat "; " es)

let test_validate_catches_precedence () =
  let dag = two_chain () in
  let b = Schedule.builder ~p:2 ~n:2 in
  Schedule.add b (placement ~task_id:0 ~start:0. ~finish:1. ~procs:[| 0; 1 |]);
  Schedule.add b (placement ~task_id:1 ~start:0.5 ~finish:1.5 ~procs:[| 0 |]);
  match Validate.check ~dag (Schedule.finalize b) with
  | Ok () -> Alcotest.fail "precedence violation missed"
  | Error es -> Alcotest.(check bool) "reported" true (es <> [])

let test_validate_catches_wrong_duration () =
  let dag = two_chain () in
  let b = Schedule.builder ~p:2 ~n:2 in
  Schedule.add b (placement ~task_id:0 ~start:0. ~finish:5. ~procs:[| 0; 1 |]);
  Schedule.add b (placement ~task_id:1 ~start:5. ~finish:6. ~procs:[| 0 |]);
  match Validate.check ~dag (Schedule.finalize b) with
  | Ok () -> Alcotest.fail "wrong duration missed"
  | Error _ -> ()

let test_validate_catches_overlap () =
  let dag =
    dag_of
      [
        Task.make ~id:0 (roofline ~w:2. ~ptilde:1);
        Task.make ~id:1 (roofline ~w:2. ~ptilde:1);
      ]
      []
  in
  let b = Schedule.builder ~p:2 ~n:2 in
  Schedule.add b (placement ~task_id:0 ~start:0. ~finish:2. ~procs:[| 0 |]);
  Schedule.add b (placement ~task_id:1 ~start:1. ~finish:3. ~procs:[| 0 |]);
  match Validate.check ~dag (Schedule.finalize b) with
  | Ok () -> Alcotest.fail "overlap missed"
  | Error _ -> ()

let test_validate_allows_back_to_back () =
  let dag =
    dag_of
      [
        Task.make ~id:0 (roofline ~w:1. ~ptilde:1);
        Task.make ~id:1 (roofline ~w:1. ~ptilde:1);
      ]
      []
  in
  let b = Schedule.builder ~p:1 ~n:2 in
  Schedule.add b (placement ~task_id:0 ~start:0. ~finish:1. ~procs:[| 0 |]);
  Schedule.add b (placement ~task_id:1 ~start:1. ~finish:2. ~procs:[| 0 |]);
  match Validate.check ~dag (Schedule.finalize b) with
  | Ok () -> ()
  | Error es -> Alcotest.failf "back-to-back rejected: %s" (String.concat ";" es)

let test_respects_allocation_bound () =
  (* ptilde = 2 but the schedule uses 4 processors: feasible yet wasteful. *)
  let dag = dag_of [ Task.make ~id:0 (roofline ~w:4. ~ptilde:2) ] [] in
  let b = Schedule.builder ~p:4 ~n:1 in
  Schedule.add b (placement ~task_id:0 ~start:0. ~finish:2. ~procs:[| 0; 1; 2; 3 |]);
  let s = Schedule.finalize b in
  Alcotest.(check bool) "feasible" true (Result.is_ok (Validate.check ~dag s));
  Alcotest.(check bool) "exceeds p_max" false
    (Validate.respects_allocation_bound ~dag s)

(* ---------------------------------------------------------------- Engine *)

let fifo_policy ~p alloc =
  Moldable_core.Online_scheduler.policy
    ~allocator:(Moldable_core.Allocator.fixed alloc) ~p ()

let test_engine_single_task () =
  let dag = dag_of [ Task.make ~id:0 (roofline ~w:6. ~ptilde:3) ] [] in
  let r = Sim_core.run ~p:4 (fifo_policy ~p:4 3) dag in
  Validate.check_exn ~dag r.Sim_core.schedule;
  check_float "makespan" 2. (Schedule.makespan r.Sim_core.schedule)

let test_engine_chain_sequential () =
  let tasks =
    List.init 3 (fun id -> Task.make ~id (roofline ~w:2. ~ptilde:2))
  in
  let dag = dag_of tasks [ (0, 1); (1, 2) ] in
  let r = Sim_core.run ~p:4 (fifo_policy ~p:4 2) dag in
  Validate.check_exn ~dag r.Sim_core.schedule;
  check_float "chain runs serially" 3. (Schedule.makespan r.Sim_core.schedule)

let test_engine_parallel_when_fits () =
  let tasks =
    List.init 4 (fun id -> Task.make ~id (roofline ~w:2. ~ptilde:1))
  in
  let dag = dag_of tasks [] in
  let r = Sim_core.run ~p:4 (fifo_policy ~p:4 1) dag in
  check_float "all in parallel" 2. (Schedule.makespan r.Sim_core.schedule)

let test_engine_waits_when_full () =
  let tasks =
    List.init 3 (fun id -> Task.make ~id (roofline ~w:2. ~ptilde:2))
  in
  let dag = dag_of tasks [] in
  let r = Sim_core.run ~p:4 (fifo_policy ~p:4 2) dag in
  (* Each task runs 2/2 = 1 time unit; only two fit at once: two waves. *)
  check_float "two waves" 2. (Schedule.makespan r.Sim_core.schedule)

let test_engine_trace_structure () =
  let dag = dag_of [ Task.make ~id:0 (roofline ~w:1. ~ptilde:1) ] [] in
  let r = Sim_core.run ~p:1 (fifo_policy ~p:1 1) dag in
  match r.Sim_core.trace with
  | [ (t0, Sim_core.Ready 0);
      (t1, Sim_core.Start (0, 1));
      (t2, Sim_core.Finish 0) ] ->
    check_float "ready at 0" 0. t0;
    check_float "start at 0" 0. t1;
    check_float "finish at 1" 1. t2
  | _ -> Alcotest.fail "unexpected trace shape"

let test_engine_reveals_only_when_ready () =
  (* Successor must not be revealed before its predecessor finishes. *)
  let tasks =
    List.init 2 (fun id -> Task.make ~id (roofline ~w:1. ~ptilde:1))
  in
  let dag = dag_of tasks [ (0, 1) ] in
  let r = Sim_core.run ~p:2 (fifo_policy ~p:2 1) dag in
  let ready_1 =
    List.find_map
      (function t, Sim_core.Ready 1 -> Some t | _ -> None)
      r.Sim_core.trace
  in
  Alcotest.(check (option (float 1e-9))) "revealed at t=1" (Some 1.) ready_1

let test_engine_policy_error_overallocate () =
  let dag = dag_of [ Task.make ~id:0 (roofline ~w:1. ~ptilde:1) ] [] in
  let policy =
    {
      Sim_core.name = "bad";
      on_ready = (fun ~now:_ _ -> ());
      next_launch = (fun ~now:_ ~free:_ -> Some (0, 99));
    }
  in
  Alcotest.(check bool) "raises Policy_error" true
    (try
       ignore (Sim_core.run ~p:2 policy dag);
       false
     with Sim_core.Policy_error _ -> true)

let test_engine_policy_error_stall () =
  let dag = dag_of [ Task.make ~id:0 (roofline ~w:1. ~ptilde:1) ] [] in
  let policy =
    {
      Sim_core.name = "lazy";
      on_ready = (fun ~now:_ _ -> ());
      next_launch = (fun ~now:_ ~free:_ -> None);
    }
  in
  Alcotest.(check bool) "raises Policy_error" true
    (try
       ignore (Sim_core.run ~p:2 policy dag);
       false
     with Sim_core.Policy_error _ -> true)

let test_engine_policy_error_double_launch () =
  let dag =
    dag_of
      [
        Task.make ~id:0 (roofline ~w:1. ~ptilde:1);
        Task.make ~id:1 (roofline ~w:1. ~ptilde:1);
      ]
      []
  in
  let fired = ref false in
  let policy =
    {
      Sim_core.name = "repeat";
      on_ready = (fun ~now:_ _ -> ());
      next_launch =
        (fun ~now:_ ~free:_ ->
          if !fired then Some (0, 1)
          else begin
            fired := true;
            Some (0, 1)
          end);
    }
  in
  Alcotest.(check bool) "raises Policy_error" true
    (try
       ignore (Sim_core.run ~p:2 policy dag);
       false
     with Sim_core.Policy_error _ -> true)

let prop_engine_schedules_valid =
  QCheck.Test.make ~name:"engine schedules always validate (random DAGs)"
    ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let kind =
        Rng.choose rng
          [| Speedup.Kind_roofline; Speedup.Kind_communication;
             Speedup.Kind_amdahl; Speedup.Kind_general |]
      in
      let dag =
        Moldable_workloads.Random_dag.layered ~rng ~n_layers:4 ~width:5
          ~edge_prob:0.3 ~kind ()
      in
      let p = Rng.int_range rng 2 64 in
      let r =
        Sim_core.run ~p
          (Moldable_core.Online_scheduler.policy
             ~allocator:Moldable_core.Allocator.algorithm2_per_model ~p ())
          dag
      in
      Result.is_ok (Validate.check ~dag r.Sim_core.schedule))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "event_queue",
        [
          Alcotest.test_case "time order" `Quick test_eq_time_order;
          Alcotest.test_case "stable ties" `Quick test_eq_stable_ties;
          Alcotest.test_case "simultaneous partial" `Quick
            test_eq_simultaneous_partial;
          Alcotest.test_case "rejects non-finite" `Quick test_eq_rejects_nonfinite;
          Alcotest.test_case "batches ulp-apart times" `Quick
            test_eq_batches_ulp_apart;
          Alcotest.test_case "keeps distinct times separate" `Quick
            test_eq_distinct_times_not_batched;
        ] );
      ( "platform",
        [
          Alcotest.test_case "acquire/release" `Quick
            test_platform_acquire_release;
          Alcotest.test_case "fragmented acquire" `Quick
            test_platform_fragmented_acquire;
          Alcotest.test_case "over-acquire" `Quick test_platform_over_acquire;
          Alcotest.test_case "double release" `Quick test_platform_double_release;
          Alcotest.test_case "create invalid" `Quick test_platform_create_invalid;
          qt prop_platform_random_ops;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "build/query" `Quick test_schedule_build_query;
          Alcotest.test_case "rejects duplicate" `Quick
            test_schedule_rejects_duplicate;
          Alcotest.test_case "rejects bad window" `Quick
            test_schedule_rejects_bad_window;
          Alcotest.test_case "rejects bad procs" `Quick
            test_schedule_rejects_bad_procs;
          Alcotest.test_case "finalize missing" `Quick
            test_schedule_finalize_missing;
          Alcotest.test_case "utilization steps" `Quick test_utilization_steps;
          Alcotest.test_case "placements sorted" `Quick test_placements_sorted;
        ] );
      ( "validate",
        [
          Alcotest.test_case "accepts good" `Quick test_validate_accepts_good;
          Alcotest.test_case "catches precedence" `Quick
            test_validate_catches_precedence;
          Alcotest.test_case "catches wrong duration" `Quick
            test_validate_catches_wrong_duration;
          Alcotest.test_case "catches overlap" `Quick test_validate_catches_overlap;
          Alcotest.test_case "allows back-to-back" `Quick
            test_validate_allows_back_to_back;
          Alcotest.test_case "allocation bound check" `Quick
            test_respects_allocation_bound;
        ] );
      ( "engine",
        [
          Alcotest.test_case "single task" `Quick test_engine_single_task;
          Alcotest.test_case "batches ulp-apart completions" `Quick
            test_engine_batches_ulp_completions;
          Alcotest.test_case "chain sequential" `Quick test_engine_chain_sequential;
          Alcotest.test_case "parallel when fits" `Quick
            test_engine_parallel_when_fits;
          Alcotest.test_case "waits when full" `Quick test_engine_waits_when_full;
          Alcotest.test_case "trace structure" `Quick test_engine_trace_structure;
          Alcotest.test_case "reveal timing" `Quick
            test_engine_reveals_only_when_ready;
          Alcotest.test_case "policy error: overallocate" `Quick
            test_engine_policy_error_overallocate;
          Alcotest.test_case "policy error: stall" `Quick
            test_engine_policy_error_stall;
          Alcotest.test_case "policy error: double launch" `Quick
            test_engine_policy_error_double_launch;
          qt prop_engine_schedules_valid;
        ] );
    ]
