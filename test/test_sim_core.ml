(* Differential tests pinning the unified simulation core (Sim_core) to the
   two pre-refactor engines, plus metrics invariants and regression tests
   for the validation/stats bugs fixed alongside the unification.

   [Seed_engine] and [Seed_failure_engine] below are verbatim copies of the
   event loops that lib/sim/engine.ml and lib/sim/failure_engine.ml carried
   before the refactor; the qcheck properties prove the unified core
   trace-equivalent (resp. attempt-equivalent) to them across all five
   priority rules, with and without release times, and under all three
   failure models. *)

open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_util
open Moldable_core
module Reference = Moldable_oracle.Reference

let check_float = Alcotest.(check (float 1e-9))

(* The seed oracles predate the int-payload flat-heap {!Event_queue}: they
   carry record/tuple payloads, so they keep a local polymorphic queue with
   the original semantics (boxed items on a closure-compared [Pqueue],
   insertion-order tie-break, the same [batch_eps] batching). *)
module Seed_event_queue = struct
  type 'a item = { time : float; seq : int; payload : 'a }
  type 'a t = { heap : 'a item Pqueue.t; mutable next_seq : int }

  let cmp a b =
    match Float.compare a.time b.time with
    | 0 -> Int.compare a.seq b.seq
    | c -> c

  let create () = { heap = Pqueue.create ~cmp; next_seq = 0 }

  let add t ~time payload =
    if not (Float.is_finite time) then
      invalid_arg "Event_queue.add: time must be finite";
    Pqueue.push t.heap { time; seq = t.next_seq; payload };
    t.next_seq <- t.next_seq + 1

  let pop t = Option.map (fun i -> (i.time, i.payload)) (Pqueue.pop t.heap)

  let pop_simultaneous t =
    match pop t with
    | None -> None
    | Some (time, first) ->
      let rec gather latest acc =
        match Pqueue.peek t.heap with
        | Some i when Fcmp.approx ~eps:Event_queue.batch_eps i.time time ->
          let i = Pqueue.pop_exn t.heap in
          gather i.time (i.payload :: acc)
        | Some _ | None -> (latest, List.rev acc)
      in
      let latest, batch = gather time [ first ] in
      Some (latest, batch)
end

(* ------------------------------------------------- seed oracle: Engine.run *)

module Seed_engine = struct
  module Event_queue = Seed_event_queue

  type task_state = Unrevealed | Available | Running | Done
  type sim_event = Complete of int * int array | Reveal of int

  let run ?release_times ~p policy dag =
    let n = Dag.n dag in
    (match release_times with
    | None -> ()
    | Some r ->
      if Array.length r <> n then
        invalid_arg "Engine.run: release_times length must equal task count";
      Array.iter
        (fun t ->
          if not (Float.is_finite t) || t < 0. then
            invalid_arg "Engine.run: release times must be finite and >= 0")
        r);
    let release i =
      match release_times with None -> 0. | Some r -> r.(i)
    in
    let platform = Platform.create p in
    let builder = Schedule.builder ~p ~n in
    let events = Event_queue.create () in
    let state = Array.make n Unrevealed in
    let indeg = Array.init n (Dag.in_degree dag) in
    let completed = ref 0 in
    let trace = ref [] in
    let record now ev = trace := (now, ev) :: !trace in
    let fail fmt =
      Printf.ksprintf
        (fun s -> raise (Sim_core.Policy_error (policy.Sim_core.name ^ ": " ^ s)))
        fmt
    in
    let reveal now i =
      state.(i) <- Available;
      record now (Metrics.Ready i);
      policy.Sim_core.on_ready ~now (Dag.task dag i)
    in
    let reveal_or_defer now i =
      if release i <= now then reveal now i
      else Event_queue.add events ~time:(release i) (Reveal i)
    in
    let launch_round now =
      let rec loop () =
        let free = Platform.free_count platform in
        if free > 0 then
          match policy.Sim_core.next_launch ~now ~free with
          | None -> ()
          | Some (tid, nprocs) ->
            if tid < 0 || tid >= n then fail "launched unknown task %d" tid;
            (match state.(tid) with
            | Available -> ()
            | Unrevealed -> fail "launched unrevealed task %d" tid
            | Running | Done -> fail "launched task %d twice" tid);
            if nprocs < 1 then fail "task %d launched on %d procs" tid nprocs;
            if nprocs > free then
              fail "task %d needs %d procs but only %d are free" tid nprocs
                free;
            let procs = Platform.acquire platform nprocs in
            let duration = Task.time (Dag.task dag tid) nprocs in
            state.(tid) <- Running;
            record now (Metrics.Start (tid, nprocs));
            Schedule.add builder
              {
                Schedule.task_id = tid;
                start = now;
                finish = now +. duration;
                nprocs;
                procs;
              };
            Event_queue.add events
              ~time:(now +. duration)
              (Complete (tid, procs));
            loop ()
      in
      loop ()
    in
    List.iter (reveal_or_defer 0.) (Dag.sources dag);
    launch_round 0.;
    while !completed < n do
      match Event_queue.pop_simultaneous events with
      | None ->
        fail "stalled: %d of %d tasks completed but nothing is running"
          !completed n
      | Some (now, batch) ->
        let finished =
          List.filter_map
            (function
              | Complete (tid, procs) ->
                Platform.release platform procs;
                state.(tid) <- Done;
                incr completed;
                record now (Metrics.Finish tid);
                Some tid
              | Reveal _ -> None)
            batch
        in
        List.iter
          (function Reveal i -> reveal now i | Complete _ -> ())
          batch;
        List.iter
          (fun tid ->
            List.iter
              (fun j ->
                indeg.(j) <- indeg.(j) - 1;
                if indeg.(j) = 0 then reveal_or_defer now j)
              (Dag.successors dag tid))
          finished;
        launch_round now
    done;
    (Schedule.finalize builder, List.rev !trace)
end

(* ----------------------------------------- seed oracle: Failure_engine.run *)

module Seed_failure_engine = struct
  module Event_queue = Seed_event_queue

  type task_state = Unrevealed | Available | Running | Done

  let run ?(seed = 0) ?(max_attempts = 1000) ~failures ~p policy dag =
    let n = Dag.n dag in
    let rng = Rng.create seed in
    let platform = Platform.create p in
    let events = Event_queue.create () in
    let state = Array.make n Unrevealed in
    let indeg = Array.init n (Dag.in_degree dag) in
    let attempt_no = Array.make n 0 in
    let completed = ref 0 in
    let attempts = ref [] in
    let fail fmt =
      Printf.ksprintf
        (fun s -> raise (Sim_core.Policy_error (policy.Sim_core.name ^ ": " ^ s)))
        fmt
    in
    let reveal now i =
      state.(i) <- Available;
      policy.Sim_core.on_ready ~now (Dag.task dag i)
    in
    let launch_round now =
      let rec loop () =
        let free = Platform.free_count platform in
        if free > 0 then
          match policy.Sim_core.next_launch ~now ~free with
          | None -> ()
          | Some (tid, nprocs) ->
            if tid < 0 || tid >= n then fail "launched unknown task %d" tid;
            (match state.(tid) with
            | Available -> ()
            | Unrevealed -> fail "launched unrevealed task %d" tid
            | Running -> fail "launched running task %d" tid
            | Done -> fail "launched completed task %d" tid);
            if nprocs < 1 || nprocs > free then
              fail "task %d launched on %d procs with %d free" tid nprocs free;
            let procs = Platform.acquire platform nprocs in
            let duration = Task.time (Dag.task dag tid) nprocs in
            state.(tid) <- Running;
            attempt_no.(tid) <- attempt_no.(tid) + 1;
            if attempt_no.(tid) > max_attempts then
              failwith
                (Printf.sprintf
                   "Failure_engine.run: task %d exceeded %d attempts" tid
                   max_attempts);
            Event_queue.add events
              ~time:(now +. duration)
              (tid, attempt_no.(tid), now, procs);
            loop ()
      in
      loop ()
    in
    List.iter (reveal 0.) (Dag.sources dag);
    launch_round 0.;
    while !completed < n do
      match Event_queue.pop_simultaneous events with
      | None ->
        fail "stalled: %d of %d tasks completed but nothing is running"
          !completed n
      | Some (now, batch) ->
        let succeeded = ref [] in
        List.iter
          (fun (tid, attempt, start, procs) ->
            Platform.release platform procs;
            let failed =
              failures.Sim_core.fails rng ~task_id:tid ~attempt
            in
            attempts :=
              {
                Metrics.task_id = tid;
                attempt;
                start;
                finish = now;
                nprocs = Array.length procs;
                procs;
                failed;
              }
              :: !attempts;
            if failed then reveal now tid
            else begin
              state.(tid) <- Done;
              incr completed;
              succeeded := tid :: !succeeded
            end)
          batch;
        List.iter
          (fun tid ->
            List.iter
              (fun j ->
                indeg.(j) <- indeg.(j) - 1;
                if indeg.(j) = 0 then reveal now j)
              (Dag.successors dag tid))
          (List.rev !succeeded);
        launch_round now
    done;
    let attempts =
      List.sort
        (fun (a : Metrics.attempt) (b : Metrics.attempt) ->
          match compare a.Metrics.start b.Metrics.start with
          | 0 ->
            compare
              (a.Metrics.task_id, a.Metrics.attempt)
              (b.Metrics.task_id, b.Metrics.attempt)
          | c -> c)
        !attempts
    in
    attempts
end

(* ------------------------------------------------------- shared generators *)

let random_dag rng =
  let kind =
    Fixtures.choose rng
      [| Speedup.Kind_roofline; Speedup.Kind_communication;
         Speedup.Kind_amdahl; Speedup.Kind_general |]
  in
  Moldable_workloads.Random_dag.layered ~rng ~n_layers:4 ~width:5
    ~edge_prob:0.3 ~kind ()

let fresh_policy ~priority ~p () =
  Online_scheduler.policy ~priority ~allocator:Allocator.algorithm2_per_model
    ~p ()

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

(* -------------------------------------------- core vs seed engine (traces) *)

let prop_core_trace_equivalent_to_seed_engine =
  QCheck.Test.make
    ~name:"unified core trace-equivalent to seed Engine.run (5 rules, +/- \
           release times)"
    ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dag = random_dag rng in
      let p = Rng.int_range rng 2 32 in
      let release_times =
        if Fixtures.coin rng then
          Some (Array.init (Dag.n dag) (fun _ -> Rng.float rng 5.))
        else None
      in
      List.for_all
        (fun priority ->
          let expected_sched, expected_trace =
            Seed_engine.run ?release_times ~p
              (fresh_policy ~priority ~p ())
              dag
          in
          let actual =
            Sim_core.run ?release_times ~p (fresh_policy ~priority ~p ()) dag
          in
          Metrics.events_from actual.Sim_core.metrics 0 = expected_trace
          && same_schedule actual.Sim_core.schedule expected_sched)
        Priority.all)

(* ---------------------------------- core vs seed failure engine (attempts) *)

let prop_core_attempt_equivalent_to_seed_failure_engine =
  QCheck.Test.make
    ~name:"unified core attempt-equivalent to seed Failure_engine.run \
           (never/bernoulli/at_most)"
    ~count:40
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 2))
    (fun (seed, model_idx) ->
      let rng = Rng.create seed in
      let dag = random_dag rng in
      let p = Rng.int_range rng 2 32 in
      let failures =
        match model_idx with
        | 0 -> Sim_core.never
        | 1 -> Sim_core.bernoulli ~q:(Rng.float rng 0.6)
        | _ -> Sim_core.at_most ~k:(Rng.int_range rng 0 3)
      in
      List.for_all
        (fun priority ->
          let expected =
            Seed_failure_engine.run ~seed ~failures ~p
              (fresh_policy ~priority ~p ())
              dag
          in
          let actual =
            Sim_core.run ~seed ~failures ~p
              (fresh_policy ~priority ~p ())
              dag
          in
          Metrics.attempts actual.Sim_core.metrics = expected)
        Priority.all)

(* ------------------------------------- failure runs regained the extras *)

let test_failure_run_returns_schedule_and_trace () =
  let rng = Rng.create 42 in
  let dag = random_dag rng in
  let p = 8 in
  let r =
    Sim_core.run ~seed:3
      ~failures:(Sim_core.bernoulli ~q:0.3)
      ~p
      (fresh_policy ~priority:Priority.fifo ~p ())
      dag
  in
  Validate.check_attempts_exn ~dag ~p (Metrics.attempts r.Sim_core.metrics);
  (* The schedule holds exactly the successful attempt of every task. *)
  Alcotest.(check int) "one placement per task" (Dag.n dag)
    (Schedule.n r.Sim_core.schedule);
  List.iter
    (fun (a : Metrics.attempt) ->
      if not a.Metrics.failed then
        check_float "schedule start = successful attempt start"
          a.Metrics.start
          (Schedule.placement r.Sim_core.schedule a.Metrics.task_id)
            .Schedule.start)
    (Metrics.attempts r.Sim_core.metrics);
  (* The trace records a Failed event per failed attempt and a Finish per
     task. *)
  let trace = Metrics.events_from r.Sim_core.metrics 0 in
  let count f = List.length (List.filter f trace) in
  Alcotest.(check int) "Failed events"
    r.Sim_core.metrics.Metrics.counters.Metrics.retries
    (count (function _, Metrics.Failed _ -> true | _ -> false));
  Alcotest.(check int) "Finish events" (Dag.n dag)
    (count (function _, Metrics.Finish _ -> true | _ -> false))

let test_failure_run_accepts_release_times () =
  let n = 4 in
  let tasks =
    List.init n (fun id -> Task.make ~id (Speedup.Roofline { w = 1.; ptilde = 1 }))
  in
  let dag = Dag.create ~tasks ~edges:[] in
  let releases = [| 0.; 2.; 4.; 6. |] in
  let p = 4 in
  let r =
    Sim_core.run ~release_times:releases
      ~failures:(Sim_core.at_most ~k:1)
      ~p
      (fresh_policy ~priority:Priority.fifo ~p ())
      dag
  in
  Validate.check_attempts_exn ~dag ~p (Metrics.attempts r.Sim_core.metrics);
  for i = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "task %d starts at/after release" i)
      true
      ((Schedule.placement r.Sim_core.schedule i).Schedule.start
      >= releases.(i) -. 1e-9)
  done;
  (* Each task fails once, so its successful attempt starts one duration
     after its release. *)
  check_float "first task retried" 1.
    (Schedule.placement r.Sim_core.schedule 0).Schedule.start

(* -------------------------------------------------------- metrics invariants *)

let metrics_fixture () =
  let rng = Rng.create 7 in
  let dag = random_dag rng in
  let p = 8 in
  let r =
    Online_scheduler.run ~seed:5
      ~failures:(Sim_core.bernoulli ~q:0.25) ~p dag
  in
  (dag, r)

let test_metrics_launches_accounting () =
  let dag, r = metrics_fixture () in
  let m = r.Sim_core.metrics in
  Alcotest.(check int) "launches = n + retries"
    (Dag.n dag + m.Metrics.counters.Metrics.retries)
    m.Metrics.counters.Metrics.launches;
  let attempts = Metrics.attempts m in
  Alcotest.(check int) "launches = attempts" (List.length attempts)
    m.Metrics.counters.Metrics.launches;
  Alcotest.(check int) "retries = failed attempts"
    (List.length (List.filter (fun (a : Metrics.attempt) -> a.failed) attempts))
    m.Metrics.counters.Metrics.retries

let test_metrics_utilization_integral () =
  let _, r = metrics_fixture () in
  let m = r.Sim_core.metrics in
  let area_of_attempts =
    List.fold_left
      (fun acc (a : Metrics.attempt) ->
        acc
        +. (float_of_int a.Metrics.nprocs
           *. (a.Metrics.finish -. a.Metrics.start)))
      0. (Metrics.attempts r.Sim_core.metrics)
  in
  let busy_area =
    List.fold_left
      (fun acc (s : Metrics.segment) ->
        acc +. (float_of_int s.Metrics.busy *. (s.Metrics.t1 -. s.Metrics.t0)))
      0. (Metrics.utilization m)
  in
  Alcotest.(check bool) "utilization integral = total attempt area" true
    (Fcmp.approx ~eps:1e-6 busy_area area_of_attempts);
  Alcotest.(check bool) "average utilization in [0, 1]" true
    (Metrics.average_utilization m >= 0. && Metrics.average_utilization m <= 1.)

let test_metrics_waits_nonnegative () =
  let _, r = metrics_fixture () in
  let m = r.Sim_core.metrics in
  Array.iter
    (fun (ts : Metrics.task_stat) ->
      Alcotest.(check bool)
        (Printf.sprintf "task %d wait >= 0" ts.Metrics.task_id)
        true
        (ts.Metrics.wait >= 0.);
      Alcotest.(check bool)
        (Printf.sprintf "task %d service > 0" ts.Metrics.task_id)
        true
        (ts.Metrics.service > 0.);
      Alcotest.(check bool)
        (Printf.sprintf "task %d attempts >= 1" ts.Metrics.task_id)
        true (ts.Metrics.attempts >= 1))
    (Metrics.tasks m)

let test_metrics_queue_depth_samples () =
  let _, r = metrics_fixture () in
  let m = r.Sim_core.metrics in
  (* One sample at time 0 plus one per processed batch, all non-negative. *)
  Alcotest.(check int) "sample count"
    (m.Metrics.counters.Metrics.batches + 1)
    (List.length (Metrics.queue_depth m));
  Alcotest.(check bool) "depths non-negative" true
    (List.for_all (fun (_, d) -> d >= 0) (Metrics.queue_depth m))

let test_metrics_exports_well_formed () =
  let dag, r = metrics_fixture () in
  let m = r.Sim_core.metrics in
  let module Json = Moldable_obs.Json in
  let json =
    match Json.of_string (Json.to_string (Metrics.to_json m)) with
    | Ok j -> j
    | Error e -> Alcotest.fail ("metrics JSON does not parse: " ^ e)
  in
  Alcotest.(check (option int)) "counters.events"
    (Some m.Metrics.counters.Metrics.events)
    (Option.bind
       (Option.bind (Json.member "counters" json) (Json.member "events"))
       Json.to_int);
  let tasks =
    Option.value ~default:[]
      (Option.bind (Json.member "tasks" json) Json.to_list)
  in
  Alcotest.(check int) "one tasks entry per task" (Dag.n dag)
    (List.length tasks);
  (* Floats print at round-trip precision: every finish stamp reads back
     bit-identical. *)
  List.iteri
    (fun i t ->
      Alcotest.(check (option (float 0.)))
        (Printf.sprintf "task %d finish round-trips" i)
        (Some (Metrics.tasks m).(i).Metrics.finish)
        (Option.bind (Json.member "finish" t) Json.to_float))
    tasks;
  let csv = Metrics.utilization_csv m in
  Alcotest.(check bool) "csv has header and rows" true
    (String.length csv > String.length "t0,t1,busy\n");
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "one row per segment"
    (List.length (Metrics.utilization m))
    (List.length lines - 1)

(* ----------------------------------------------- max_attempts guard report *)

let test_max_attempts_error_is_descriptive () =
  let dag =
    Dag.create
      ~tasks:[ Task.make ~id:0 (Speedup.Roofline { w = 1.; ptilde = 1 }) ]
      ~edges:[]
  in
  let p = 1 in
  match
    Sim_core.run ~max_attempts:3
      ~failures:(Sim_core.at_most ~k:10)
      ~p
      (fresh_policy ~priority:Priority.fifo ~p ())
      dag
  with
  | _ -> Alcotest.fail "expected the attempt limit to trip"
  | exception Failure msg ->
    let has sub =
      let n = String.length msg and m = String.length sub in
      let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "names the task" true (has "task 0");
    Alcotest.(check bool) "names the limit" true (has "(3 attempts");
    Alcotest.(check bool) "names the failure model" true (has "at-most(10)")

(* ------------------------------------------ validate: NaN predecessor bug *)

let test_validate_flags_never_succeeded_predecessor () =
  (* Task 0 only ever failed; task 1 (its successor) ran anyway.  The seed
     validator compared starts against NaN, so the precedence violation was
     silently accepted. *)
  let tasks =
    List.init 2 (fun id -> Task.make ~id (Speedup.Roofline { w = 1.; ptilde = 1 }))
  in
  let dag = Dag.create ~tasks ~edges:[ (0, 1) ] in
  let p = 2 in
  let attempt ~task_id ~attempt ~start ~procs ~failed =
    {
      Metrics.task_id;
      attempt;
      start;
      finish = start +. 1.;
      nprocs = Array.length procs;
      procs;
      failed;
    }
  in
  let attempts =
    [
      attempt ~task_id:0 ~attempt:1 ~start:0. ~procs:[| 0 |] ~failed:true;
      attempt ~task_id:1 ~attempt:1 ~start:1. ~procs:[| 1 |] ~failed:false;
    ]
  in
  match Validate.check_attempts ~dag ~p attempts with
  | Ok () -> Alcotest.fail "validator accepted a never-succeeded predecessor"
  | Error es ->
    Alcotest.(check bool) "reports the phantom precedence" true
      (List.exists
         (fun e ->
           let has sub =
             let n = String.length e and m = String.length sub in
             let rec go i = i + m <= n && (String.sub e i m = sub || go (i + 1)) in
             go 0
           in
           has "predecessor 0 never succeeded")
         es)

(* ------------------------------- validate: attempt lists vs schedules *)

let test_check_attempts_flags_malformed_runs () =
  (* 0 -> 1, unit durations on 2 processors.  The clean run: task 0 fails
     once, succeeds on its second attempt, then task 1 runs. *)
  let tasks =
    List.init 2 (fun id -> Task.make ~id (Speedup.Roofline { w = 1.; ptilde = 1 }))
  in
  let dag = Dag.create ~tasks ~edges:[ (0, 1) ] in
  let p = 2 in
  let at task_id attempt start ?(procs = [| 0 |]) failed =
    { Metrics.task_id; attempt; start; finish = start +. 1.;
      nprocs = Array.length procs; procs; failed }
  in
  let clean = [ at 0 1 0. true; at 0 2 1. false; at 1 1 2. false ] in
  Alcotest.(check bool) "clean run accepted" true
    (Result.is_ok (Validate.check_attempts ~dag ~p clean));
  let flags what attempts sub =
    match Validate.check_attempts ~dag ~p attempts with
    | Ok () -> Alcotest.failf "%s accepted" what
    | Error es ->
      let has e =
        let n = String.length e and m = String.length sub in
        let rec go i = i + m <= n && (String.sub e i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) what true (List.exists has es)
  in
  flags "missing task" [ at 0 1 0. false ] "task 1 never executed";
  flags "failed last attempt" [ at 0 1 0. false; at 1 1 1. true ]
    "task 1's last attempt failed";
  flags "re-executed success"
    [ at 0 1 0. false; at 0 2 1. false; at 1 1 2. false ]
    "task 0 attempt 1 succeeded but was re-executed";
  flags "numbering gap" [ at 0 1 0. true; at 0 3 1. false; at 1 1 2. false ]
    "task 0 attempt numbering broken at 3";
  flags "wrong duration"
    [ at 0 1 0. true; { (at 0 2 1. false) with finish = 3. };
      at 1 1 3. false ]
    "task 0 attempt 2 on 1 procs should run 1";
  flags "start before the successful predecessor"
    [ at 0 1 0. true; at 0 2 1. false; at 1 1 1.5 ~procs:[| 1 |] false ]
    "task 1 attempt 1 starts at 1.5 before 0 finishes at 2";
  flags "double-booked processor"
    [ at 0 1 0. true; at 0 2 1. false; at 1 1 2. false;
      at 1 1 2. false ]
    "processor 0 used by task 1 attempt 1 and task 1 attempt 1";
  flags "allocation above p"
    [ at 0 1 0. false; { (at 1 1 1. false) with nprocs = 3 } ]
    "task 1 attempt 1 has bad allocation 3"

let prop_check_attempts_agrees_with_check =
  QCheck.Test.make
    ~name:"check_attempts agrees with check on failure-free runs (clean and \
           one corrupted start stamp)"
    ~count:100
    QCheck.(pair (int_range 0 1_000_000) bool)
    (fun (seed, tiny) ->
      let rng = Rng.create seed in
      let dag = random_dag rng in
      let p = Rng.int_range rng 2 32 in
      let r =
        Sim_core.run ~p (fresh_policy ~priority:Priority.fifo ~p ()) dag
      in
      let verdicts sched attempts =
        let count = function Ok () -> 0 | Error es -> List.length es in
        ( count (Validate.check ~dag sched),
          count (Validate.check_attempts ~dag ~p attempts) )
      in
      let clean_s, clean_a =
        verdicts r.Sim_core.schedule (Metrics.attempts r.Sim_core.metrics)
      in
      (* Corrupt one task's start stamp in both views: either within the
         validators' tolerance or anywhere before its finish. *)
      let k = Rng.int rng (Dag.n dag) in
      let pl = Schedule.placement r.Sim_core.schedule k in
      let start =
        if tiny then pl.Schedule.start +. 1e-12
        else Rng.float rng pl.Schedule.finish
      in
      let builder = Schedule.builder ~p ~n:(Dag.n dag) in
      List.iter
        (fun (q : Schedule.placement) ->
          Schedule.add builder
            (if q.Schedule.task_id = k then { q with Schedule.start } else q))
        (Schedule.placements r.Sim_core.schedule);
      let attempts =
        List.map
          (fun (a : Metrics.attempt) ->
            if a.Metrics.task_id = k then { a with Metrics.start } else a)
          (Metrics.attempts r.Sim_core.metrics)
      in
      let bad_s, bad_a = verdicts (Schedule.finalize builder) attempts in
      clean_s = 0 && clean_a = 0 && bad_s = bad_a && (tiny || bad_s > 0))

(* ------------------------------------- malleable engine: FIFO refactor *)

module Seed_malleable = struct
  (* The seed's list-based equal_share loop (O(n^2) FIFO), kept as the
     oracle for the queue-based rewrite.  [water_fill] is copied too since
     the library does not export it. *)
  let water_fill ~p tasks_with_caps =
    let n = List.length tasks_with_caps in
    if n = 0 then []
    else begin
      let alloc = Hashtbl.create n in
      let remaining = ref p in
      let active = ref tasks_with_caps in
      let continue = ref true in
      while !continue && !active <> [] && !remaining > 0 do
        let m = List.length !active in
        let share = max 1 (!remaining / m) in
        let next_active = ref [] in
        let gave = ref false in
        List.iter
          (fun (id, cap) ->
            let current =
              Option.value ~default:0 (Hashtbl.find_opt alloc id)
            in
            let want = min cap (current + share) in
            let give = min (want - current) !remaining in
            if give > 0 then begin
              Hashtbl.replace alloc id (current + give);
              remaining := !remaining - give;
              gave := true
            end;
            if current + give < cap then
              next_active := (id, cap) :: !next_active)
          !active;
        active := List.rev !next_active;
        if not !gave then continue := false
      done;
      List.filter_map
        (fun (id, _) ->
          match Hashtbl.find_opt alloc id with
          | Some q when q > 0 -> Some (id, q)
          | Some _ | None -> None)
        tasks_with_caps
    end

  let equal_share ~p dag =
    let n = Dag.n dag in
    let indeg = Array.init n (Dag.in_degree dag) in
    let remaining = Array.make n 1.0 in
    let completion = Array.make n nan in
    let available = ref [] in
    let reveal i = available := !available @ [ i ] in
    List.iter reveal (Dag.sources dag);
    let phases = ref [] in
    let now = ref 0. in
    let completed = ref 0 in
    while !completed < n do
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | x :: rest -> x :: take (k - 1) rest
      in
      let active = take p !available in
      if active = [] then
        failwith "Malleable_engine.equal_share: stalled with tasks remaining";
      let caps =
        List.map
          (fun i -> (i, (Task.analyze ~p (Dag.task dag i)).Task.p_max))
          active
      in
      let allocs = water_fill ~p caps in
      let rates =
        List.map
          (fun (i, q) -> (i, 1. /. Task.time (Dag.task dag i) q))
          allocs
      in
      let dt =
        List.fold_left
          (fun acc (i, rate) -> Float.min acc (remaining.(i) /. rate))
          infinity rates
      in
      if not (Float.is_finite dt) then
        failwith "Malleable_engine.equal_share: no progress possible";
      let t0 = !now and t1 = !now +. dt in
      phases := { Malleable_engine.t0; t1; allocs } :: !phases;
      now := t1;
      let finished = ref [] in
      List.iter
        (fun (i, rate) ->
          remaining.(i) <- remaining.(i) -. (rate *. dt);
          if remaining.(i) <= 1e-12 then begin
            remaining.(i) <- 0.;
            completion.(i) <- t1;
            finished := i :: !finished
          end)
        rates;
      let finished = List.rev !finished in
      available := List.filter (fun i -> not (List.mem i finished)) !available;
      List.iter
        (fun i ->
          incr completed;
          List.iter
            (fun j ->
              indeg.(j) <- indeg.(j) - 1;
              if indeg.(j) = 0 then reveal j)
            (Dag.successors dag i))
        finished
    done;
    (List.rev !phases, !now, completion)
end

let prop_malleable_phases_unchanged =
  QCheck.Test.make
    ~name:"queue-based equal_share reproduces the seed's phase sequence"
    ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dag = random_dag rng in
      let p = Rng.int_range rng 2 32 in
      let expected_phases, expected_makespan, expected_completion =
        Seed_malleable.equal_share ~p dag
      in
      let r = Malleable_engine.equal_share ~p dag in
      r.Malleable_engine.phases = expected_phases
      && Float.equal r.Malleable_engine.makespan expected_makespan
      && r.Malleable_engine.completion = expected_completion)

(* ----------------------- allocation-lean core vs the reference event loop *)

(* Schedule, trace, attempts, makespan, counts and every metrics view,
   element for element.  [Reference.of_sim] forces a [Sim_core.result]'s
   views into the list shapes [Reference.run] builds eagerly. *)
let same_views (a : Reference.result) (b : Reference.result) =
  same_schedule a.Reference.schedule b.Reference.schedule
  && a.Reference.trace = b.Reference.trace
  && a.Reference.attempts = b.Reference.attempts
  && Float.equal a.Reference.makespan b.Reference.makespan
  && a.Reference.n_attempts = b.Reference.n_attempts
  && a.Reference.n_failures = b.Reference.n_failures
  && a.Reference.p = b.Reference.p
  && a.Reference.counters = b.Reference.counters
  && a.Reference.utilization = b.Reference.utilization
  && a.Reference.queue_depth = b.Reference.queue_depth
  && a.Reference.tasks = b.Reference.tasks

let same_result a b = same_views (Reference.of_sim a) (Reference.of_sim b)

let gen_scenario rng =
  let dag = random_dag rng in
  let p = Rng.int_range rng 2 32 in
  let release_times =
    if Fixtures.coin rng then
      Some (Array.init (Dag.n dag) (fun _ -> Rng.float rng 5.))
    else None
  in
  let failures =
    match Rng.int_range rng 0 2 with
    | 0 -> Sim_core.never
    | 1 -> Sim_core.bernoulli ~q:(Rng.float rng 0.6)
    | _ -> Sim_core.at_most ~k:(Rng.int_range rng 0 3)
  in
  (dag, p, release_times, failures)

(* Release times and a failure model in every run, on tasks whose times
   are small integers and releases on the same integer grid (some one
   relative 1e-13 late, inside the batching tolerance): batches then merge
   completions, failed attempts and release-time reveals.  That is where
   the reference's own makespan (its latest attempt end, a batch instant)
   and the one [Reference.of_sim] derives from the schedule could part. *)
let gen_merged_scenario rng =
  let dag =
    Dag.map_tasks
      (fun t ->
        Task.make ~id:t.Task.id
          (Speedup.Roofline
             { w = float_of_int (2 * Rng.int_range rng 1 3);
               ptilde = Rng.int_range rng 1 2 }))
      (random_dag rng)
  in
  let release_times =
    Array.init (Dag.n dag) (fun _ ->
        let k = float_of_int (Rng.int_range rng 0 6) in
        if Fixtures.coin rng then k *. (1. +. 1e-13) else k)
  in
  let failures =
    if Fixtures.coin rng then Sim_core.bernoulli ~q:(Rng.float rng 0.6)
    else Sim_core.at_most ~k:(Rng.int_range rng 1 2)
  in
  (dag, Rng.int_range rng 2 8, Some release_times, failures)

let allocators = [ Allocator.algorithm2_per_model; Improved_alloc.per_model ]

let prop_arena_core_matches_reference =
  QCheck.Test.make
    ~name:"arena core run = run_reference (5 rules x 2 allocators, failure \
           models, release times)"
    ~count:30
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let scenario = gen_scenario rng in
      List.for_all
        (fun (dag, p, release_times, failures) ->
          List.for_all
            (fun priority ->
              List.for_all
                (fun allocator ->
                  let reference =
                    Reference.run ?release_times ~seed ~failures ~p
                      (Online_scheduler.policy ~priority ~allocator ~p ())
                      dag
                  in
                  let actual =
                    Sim_core.run ?release_times ~seed ~failures ~p
                      (Online_scheduler.policy ~priority ~allocator ~p ())
                      dag
                  in
                  same_views (Reference.of_sim actual) reference)
                allocators)
            Priority.all)
        [ scenario; gen_merged_scenario rng ])

let prop_lean_mode_matches_full =
  QCheck.Test.make
    ~name:"lean run: identical schedule/makespan/counters, empty recording"
    ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dag, p, release_times, failures = gen_scenario rng in
      List.for_all
        (fun priority ->
          let full =
            Sim_core.run ?release_times ~seed ~failures ~p
              (fresh_policy ~priority ~p ())
              dag
          in
          let lean =
            Sim_core.run ~lean:true ?release_times ~seed ~failures ~p
              (fresh_policy ~priority ~p ())
              dag
          in
          same_schedule lean.Sim_core.schedule full.Sim_core.schedule
          && lean.Sim_core.metrics.Metrics.counters
             = full.Sim_core.metrics.Metrics.counters
          && Metrics.events_from lean.Sim_core.metrics 0 = []
          && Metrics.attempts lean.Sim_core.metrics = [])
        Priority.all)

let prop_arena_reuse_changes_nothing =
  QCheck.Test.make
    ~name:"one arena reused across heterogeneous runs changes nothing"
    ~count:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let arena = Sim_core.Arena.create () in
      (* A sequence of runs with varying (p, n), priorities, failure models
         and lean flags through the same arena: each must be bit-identical
         to a fresh-storage run.  The sequence mixes sizes so the arena's
         high-water arrays are both grown and partially reused. *)
      List.for_all
        (fun _ ->
          let dag, p, release_times, failures = gen_scenario rng in
          let priority = Fixtures.choose rng (Array.of_list Priority.all) in
          let lean = Fixtures.coin rng in
          let fresh =
            Sim_core.run ~lean ?release_times ~seed ~failures ~p
              (fresh_policy ~priority ~p ())
              dag
          in
          let reused =
            Sim_core.run ~arena ~lean ?release_times ~seed ~failures ~p
              (fresh_policy ~priority ~p ())
              dag
          in
          same_result reused fresh)
        [ 1; 2; 3; 4; 5; 6 ])

let test_result_does_not_alias_arena () =
  (* Keep run A's result, then put its arena through full and lean runs of
     larger and smaller (p, n) and a stepper abandoned mid-run.  A result
     owns its recording, so every view of A, forced only now, must equal
     that of a fresh-storage run of A. *)
  let rng = Rng.create 4242 in
  let dag_of n =
    Moldable_workloads.Random_dag.erdos_renyi ~rng ~n ~edge_prob:0.1
      ~kind:Speedup.Kind_amdahl ()
  in
  let failures = Sim_core.at_most ~k:1 in
  let run ?arena ?(lean = false) ~p dag =
    Sim_core.run ?arena ~lean ~seed:3 ~failures ~p
      (fresh_policy ~priority:Priority.fifo ~p ())
      dag
  in
  let arena = Sim_core.Arena.create () in
  let p_a = 16 and dag_a = dag_of 30 in
  let a = run ~arena ~p:p_a dag_a in
  ignore (run ~arena ~p:64 (dag_of 120) : Sim_core.result);
  ignore (run ~arena ~lean:true ~p:64 (dag_of 150) : Sim_core.result);
  ignore (run ~arena ~p:4 (dag_of 8) : Sim_core.result);
  ignore (run ~arena ~lean:true ~p:2 (dag_of 5) : Sim_core.result);
  (let dag = dag_of 60 in
   let st =
     Sim_core.Stepper.create ~arena ~failures ~p:32
       (fresh_policy ~priority:Priority.fifo ~p:32 ())
   in
   for i = 0 to Dag.n dag - 1 do
     ignore
       (Sim_core.Stepper.admit_task st ~deps:(Dag.predecessors dag i)
          (Dag.task dag i)
         : int)
   done;
   ignore (Sim_core.Stepper.advance st ~until:5. : int);
   Alcotest.(check bool) "the stepper recorded events" true
     (Sim_core.Stepper.n_events st > 0);
   Sim_core.Stepper.abandon st);
  ignore (run ~arena ~p:p_a (dag_of 40) : Sim_core.result);
  Alcotest.(check bool) "A recorded failed attempts" true
    (a.Sim_core.metrics.Metrics.counters.Metrics.retries > 0);
  Alcotest.(check bool) "every view of A equals a fresh run's" true
    (same_result a (run ~p:p_a dag_a))

let test_full_recording_allocation_budget () =
  (* Recording lands in flat arrays, not lists: on 10^4 independent tasks a
     full run may allocate at most 16 minor words per task more than a lean
     run (the recording's arrays are too large for the minor heap). *)
  let n = 10_000 and p = 64 in
  let rng = Rng.create 99 in
  let dag =
    Moldable_workloads.Random_dag.independent ~rng ~n
      ~kind:Speedup.Kind_roofline ()
  in
  let measured ~lean =
    let policy = fresh_policy ~priority:Priority.fifo ~p () in
    let w0 = Gc.minor_words () in
    let r = Sim_core.run ~lean ~p policy dag in
    (Gc.minor_words () -. w0, r)
  in
  let lean_words, _ = measured ~lean:true in
  let full_words, full = measured ~lean:false in
  let extra = (full_words -. lean_words) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "full run: %.1f extra minor words per task (budget 16)"
       extra)
    true (extra <= 16.);
  Alcotest.(check bool) "every view equals a fresh run's" true
    (same_result full (snd (measured ~lean:false)))

(* A batch Algorithm 1 run on a warm domain arena.  Per task, the minor
   heap takes the launch's [Some (id, alloc)] (5 words), the batch instant
   that the policy's callbacks take boxed (2 words, boxed once per batch,
   about one batch per task here) and the ready queue's per-allocation
   heaps as they grow (1 word): 8.2 words in all.  The reveal's Step 1,
   the launch's duration and the event heap's stamps box nothing, because
   the build inlines across modules; a build that compiles modules
   opaquely (dune's dev profile) boxes them and reads 38 words.  The major
   heap takes the result's copies of the per-task arrays, the processor
   blocks and the recording (27 words).  Building the analysis, the
   decision and the priority item at each reveal cost 64 minor words per
   task, an [int array] of ids per processor block 98 minor and 46 major
   words, a fresh arena per run 98 major words, and the boxed Prefix_min
   ready queue 113 minor words, so each budget fails on the regression it
   pins. *)
let test_batch_run_words_per_task () =
  let n = 20_000 and p = 64 in
  let rng = Rng.create 5 in
  let dag =
    Moldable_workloads.Random_dag.independent ~rng ~n
      ~kind:Speedup.Kind_amdahl ()
  in
  let run () =
    Online_scheduler.run ~allocator:Allocator.algorithm2_per_model ~p dag
  in
  ignore (run () : Sim_core.result);
  (* Empty the minor heap on both sides, so that the major count includes
     everything the run promotes, the result included. *)
  Gc.minor ();
  let s0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let r = run () in
  let w1 = Gc.minor_words () in
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  let per_task x = x /. float_of_int n in
  let minor = per_task (w1 -. w0) in
  let major = per_task (s1.Gc.major_words -. s0.Gc.major_words) in
  Alcotest.(check int) "every task placed" n (Schedule.n r.Sim_core.schedule);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per task (budget 9)" minor)
    true (minor <= 9.);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f major words per task (budget 30)" major)
    true (major <= 30.)

(* A run without [~arena] takes its domain's arena, which is busy while
   the outer run's policy callback runs: the nested run must fall back to a
   private arena and return the standalone schedule, and the outer run
   must not notice. *)
let test_nested_run_falls_back () =
  let rng = Rng.create 17 in
  let outer_dag = random_dag rng and inner_dag = random_dag rng in
  let p = 12 in
  let standalone dag =
    Sim_core.run ~p (fresh_policy ~priority:Priority.fifo ~p ()) dag
  in
  let nested = ref None in
  let base = fresh_policy ~priority:Priority.fifo ~p () in
  let policy =
    {
      base with
      Sim_core.on_ready =
        (fun ~now task ->
          if !nested = None then nested := Some (standalone inner_dag);
          base.Sim_core.on_ready ~now task);
    }
  in
  let outer = Sim_core.run ~p policy outer_dag in
  Alcotest.(check bool) "nested run = standalone run" true
    (same_result (Option.get !nested) (standalone inner_dag));
  Alcotest.(check bool) "outer run = standalone run" true
    (same_result outer (standalone outer_dag))

(* The domain's arena outlives every run on it, so it must not keep a
   finished run alive: once the result is dropped, the processor blocks
   of its schedule are garbage. *)
let test_domain_arena_drops_finished_run () =
  let rng = Rng.create 23 in
  let dag =
    Moldable_workloads.Random_dag.independent ~rng ~n:50
      ~kind:Speedup.Kind_amdahl ()
  in
  let p = 16 in
  let blocks = Weak.create 1 in
  (let r = Sim_core.run ~p (fresh_policy ~priority:Priority.fifo ~p ()) dag in
   Weak.set blocks 0
     (Some (Schedule.placement r.Sim_core.schedule 0).Schedule.procs));
  Gc.full_major ();
  Alcotest.(check bool) "the result's processor block was collected" false
    (Weak.check blocks 0)

(* Admission checks each release time, and [run] abandons its stepper when
   one is rejected, which hands the domain arena back: the next run on it
   returns a fresh run's schedule, and allocates on the major heap only the
   result's copies (a run that had to fall back to a private arena would
   also pay for the arena: 74 major words per task here). *)
let test_bad_release_frees_domain_arena () =
  let n = 2_000 and p = 16 in
  let rng = Rng.create 31 in
  let dag =
    Moldable_workloads.Random_dag.independent ~rng ~n
      ~kind:Speedup.Kind_amdahl ()
  in
  let run ?release_times ?arena () =
    Sim_core.run ?release_times ?arena ~p
      (fresh_policy ~priority:Priority.fifo ~p ())
      dag
  in
  ignore (run () : Sim_core.result);
  let bad = Array.make n 0. in
  bad.(n - 1) <- Float.nan;
  (match run ~release_times:bad () with
  | _ -> Alcotest.fail "a NaN release time must be rejected"
  | exception Invalid_argument _ -> ());
  Gc.minor ();
  let s0 = Gc.quick_stat () in
  let r = run () in
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  let major = (s1.Gc.major_words -. s0.Gc.major_words) /. float_of_int n in
  Alcotest.(check bool) "the next run equals a fresh run" true
    (same_result r (run ~arena:(Sim_core.Arena.create ()) ()));
  Alcotest.(check bool)
    (Printf.sprintf "%.1f major words per task (budget 30)" major)
    true (major <= 30.)

let test_domain_arena_run_one_unchanged () =
  (* Experiment.run_one now runs lean on the domain's arena; its numbers
     must match a plain full run. *)
  let rng = Rng.create 11 in
  let dag = random_dag rng in
  let p = 16 in
  let spec = Moldable_analysis.Experiment.algorithm1 in
  let mk1, ratio1 = Moldable_analysis.Experiment.run_one ~p spec dag in
  let full = Online_scheduler.run ~p dag in
  let mk2 = Schedule.makespan full.Sim_core.schedule in
  check_float "makespan matches full run" mk2 mk1;
  Alcotest.(check bool) "ratio >= 1" true (ratio1 >= 1. -. 1e-9)

(* A launch times a closed-form task from the parameters its admission
   copied into the arena, and any other task through [Task.time].  Every
   attempt's finish stamp must be its start plus [Task.time] at its
   allocation, bit for bit, on all six models, in a batch run and in a
   stepper whose arena grows from capacity 0. *)
let prop_launch_durations_equal_task_time =
  QCheck.Test.make
    ~name:"launch durations equal Task.time on every model" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let p = Rng.int_range rng 1 64 in
      let n = Rng.int_range rng 1 60 in
      let random_model = Moldable_workloads.Params.random rng in
      let tasks =
        List.init n (fun id ->
            let m =
              match Rng.int rng 6 with
              | 0 -> random_model Speedup.Kind_roofline
              | 1 -> random_model Speedup.Kind_communication
              | 2 -> random_model Speedup.Kind_amdahl
              | 3 -> random_model Speedup.Kind_general
              | 4 -> random_model Speedup.Kind_power
              | _ ->
                let w = Rng.log_uniform rng 1. 100. in
                Speedup.Arbitrary
                  {
                    name = "rand";
                    time = (fun q -> w /. sqrt (float_of_int q));
                  }
            in
            Task.make ~id m)
      in
      let dag = Dag.create ~tasks ~edges:[] in
      let policy () = fresh_policy ~priority:Priority.fifo ~p () in
      let failures = Sim_core.at_most ~k:(Rng.int rng 2) in
      let batch = Sim_core.run ~failures ~p (policy ()) dag in
      let stepped =
        let st = Sim_core.Stepper.create ~failures ~p (policy ()) in
        List.iter
          (fun t -> ignore (Sim_core.Stepper.admit_task st t : int))
          tasks;
        Sim_core.Stepper.drain st
      in
      let exact (r : Sim_core.result) =
        List.for_all
          (fun i ->
            let pl = Schedule.placement r.Sim_core.schedule i in
            Float.equal pl.Schedule.finish
              (pl.Schedule.start
              +. Task.time (Dag.task dag i) pl.Schedule.nprocs))
          (List.init n Fun.id)
      in
      exact batch && exact stepped)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim_core"
    [
      ( "differential",
        [
          qt prop_core_trace_equivalent_to_seed_engine;
          qt prop_core_attempt_equivalent_to_seed_failure_engine;
        ] );
      ( "alloc-lean core",
        [
          qt prop_arena_core_matches_reference;
          qt prop_lean_mode_matches_full;
          qt prop_arena_reuse_changes_nothing;
          Alcotest.test_case "result does not alias the arena" `Quick
            test_result_does_not_alias_arena;
          Alcotest.test_case "full recording allocation budget" `Quick
            test_full_recording_allocation_budget;
          Alcotest.test_case "batch run words per task" `Quick
            test_batch_run_words_per_task;
          qt prop_launch_durations_equal_task_time;
          Alcotest.test_case "nested run falls back to a private arena"
            `Quick test_nested_run_falls_back;
          Alcotest.test_case "domain arena drops a finished run" `Quick
            test_domain_arena_drops_finished_run;
          Alcotest.test_case "bad release time frees the domain arena"
            `Quick test_bad_release_frees_domain_arena;
          Alcotest.test_case "run_one on domain arena" `Quick
            test_domain_arena_run_one_unchanged;
        ] );
      ( "failure extras",
        [
          Alcotest.test_case "schedule and trace" `Quick
            test_failure_run_returns_schedule_and_trace;
          Alcotest.test_case "release times" `Quick
            test_failure_run_accepts_release_times;
          Alcotest.test_case "max_attempts report" `Quick
            test_max_attempts_error_is_descriptive;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "launch accounting" `Quick
            test_metrics_launches_accounting;
          Alcotest.test_case "utilization integral" `Quick
            test_metrics_utilization_integral;
          Alcotest.test_case "waits non-negative" `Quick
            test_metrics_waits_nonnegative;
          Alcotest.test_case "queue depth samples" `Quick
            test_metrics_queue_depth_samples;
          Alcotest.test_case "exports well-formed" `Quick
            test_metrics_exports_well_formed;
        ] );
      ( "validate regression",
        [
          Alcotest.test_case "NaN predecessor flagged" `Quick
            test_validate_flags_never_succeeded_predecessor;
          Alcotest.test_case "malformed attempt lists flagged" `Quick
            test_check_attempts_flags_malformed_runs;
          qt prop_check_attempts_agrees_with_check;
        ] );
      ( "malleable",
        [ qt prop_malleable_phases_unchanged ] );
    ]
