open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_util

let check_float = Alcotest.(check (float 1e-9))

let roofline ~w ~ptilde = Speedup.Roofline { w; ptilde }

let dag_of tasks edges = Dag.create ~tasks ~edges

(* ----------------------------------------------------------- Event_queue *)

(* The payloads of the next batch, in batch order. *)
let pop_payloads q =
  List.init (Event_queue.pop_batch q) (Event_queue.batch_payload q)

let test_eq_time_order () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:3. 30;
  Event_queue.add q ~time:1. 10;
  Event_queue.add q ~time:2. 20;
  Alcotest.(check (list int)) "first" [ 10 ] (pop_payloads q);
  check_float "its instant" 1. (Event_queue.batch_time q);
  Alcotest.(check (float 0.)) "next time" 2. (Event_queue.next_time q)

let test_eq_stable_ties () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:1. 1;
  Event_queue.add q ~time:1. 2;
  Event_queue.add q ~time:1. 3;
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3 ] (pop_payloads q);
  check_float "time" 1. (Event_queue.batch_time q);
  Alcotest.(check (float 0.)) "drained" infinity (Event_queue.next_time q)

let test_eq_simultaneous_partial () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:1. 1;
  Event_queue.add q ~time:2. 2;
  Alcotest.(check (list int)) "only t=1" [ 1 ] (pop_payloads q);
  Alcotest.(check (float 0.)) "one left" 2. (Event_queue.next_time q);
  Alcotest.(check (list int)) "then t=2" [ 2 ] (pop_payloads q);
  Alcotest.(check int) "empty" 0 (Event_queue.pop_batch q)

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
  Alcotest.(check (list int)) "both events in one batch, earliest first"
    [ 2; 1 ] (pop_payloads q);
  (* The instant is the batch's latest stamp, so callers acting "at" it
     never precede a stamp inside the batch; each event keeps its own. *)
  check_float "batch at the later stamp" t1 (Event_queue.batch_time q);
  Alcotest.(check bool) "stamps kept exactly" true
    (Float.equal (Event_queue.batch_stamp q 0) t2
    && Float.equal (Event_queue.batch_stamp q 1) t1);
  Alcotest.(check (float 0.)) "drained" infinity (Event_queue.next_time q)

let test_eq_distinct_times_not_batched () =
  (* The tolerance is relative and tiny: genuinely distinct close times
     stay separate scheduling instants. *)
  let q = Event_queue.create () in
  Event_queue.add q ~time:1.0 1;
  Event_queue.add q ~time:(1.0 +. 1e-9) 2;
  Alcotest.(check (list int)) "only one" [ 1 ] (pop_payloads q)

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
      (function t, Metrics.Finish _ -> Some t | _ -> None)
      (Metrics.events_from r.Sim_core.metrics 0)
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
        if Fixtures.coin rng && Platform.free_count pf > 0 then begin
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

(* Platform sizes on both sides of every 62- and 63-bit word boundary. *)
let word_sizes = [| 1; 2; 61; 62; 63; 64; 124; 125; 126; 256; 1000 |]

(* A random acquire/release script run on [Platform] and on the
   processor-per-flag reference it replaced.  Acquisitions go through the
   pair path or the [int array] path at random, and now and then ask for
   too many or no processors; releases return a held block (by its pairs
   when it has them), a block already returned, or an out-of-range id.
   Each step must give the same ids in the same order, the same free count
   and the same [Invalid_argument] message; the script ends at the first
   error, after which the two need not agree. *)
let prop_platform_matches_reference =
  QCheck.Test.make ~name:"platform = bool-array reference on random scripts"
    ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let module R = Moldable_oracle.Platform_reference in
      let rng = Rng.create seed in
      let p = Fixtures.choose rng word_sizes in
      let pf = Platform.create p and rf = R.create p in
      let buf = Growbuf.I.create () in
      let outcome f =
        match f () with v -> Ok v | exception Invalid_argument m -> Error m
      in
      (* Held and returned blocks: their ids, and their pairs in [buf] as
         (offset, pair count) when acquired by pairs. *)
      let held = ref [] and returned = ref [] in
      let ok = ref true and go = ref true and steps = ref 0 in
      let agree got want =
        if got <> want then ok := false;
        if Result.is_error want then go := false
      in
      while !ok && !go && !steps < 200 do
        incr steps;
        let free = R.free_count rf in
        (match Rng.int rng 5 with
        | 0 | 1 ->
          let n =
            match Rng.int rng 12 with
            | 0 -> free + 1 + Rng.int rng 3
            | 1 -> - Rng.int rng 2
            | _ -> if free = 0 then 1 else Rng.int_range rng 1 free
          in
          let by_pairs = Fixtures.coin rng in
          let got =
            outcome (fun () ->
                if by_pairs then begin
                  let off = Growbuf.I.length buf in
                  Platform.acquire_pairs pf n buf;
                  let len = (Growbuf.I.length buf - off) / 2 in
                  ( Platform.ids_of_pairs (Growbuf.I.to_array buf) ~off ~len,
                    Some (off, len) )
                end
                else (Platform.acquire pf n, None))
          in
          let want = outcome (fun () -> R.acquire rf n) in
          agree (Result.map fst got) want;
          (match got with Ok b when !ok -> held := b :: !held | _ -> ())
        | 2 | 3 -> (
          match !held with
          | [] -> ()
          | _ ->
            let k = Rng.int rng (List.length !held) in
            let ((ids, pairs) as b) = List.nth !held k in
            held := List.filteri (fun j _ -> j <> k) !held;
            returned := b :: !returned;
            let got =
              outcome (fun () ->
                  match pairs with
                  | Some (off, len) when Fixtures.coin rng ->
                    Platform.release_pairs pf (Growbuf.I.data buf) ~off ~len
                  | Some _ | None -> Platform.release pf ids)
            in
            agree got (outcome (fun () -> R.release rf ids)))
        | _ -> (
          match !returned with
          | (ids, pairs) :: _ when Fixtures.coin rng ->
            let got =
              outcome (fun () ->
                  match pairs with
                  | Some (off, len) ->
                    Platform.release_pairs pf (Growbuf.I.data buf) ~off ~len
                  | None -> Platform.release pf ids)
            in
            agree got (outcome (fun () -> R.release rf ids))
          | _ ->
            let bad =
              if Fixtures.coin rng then [| -1 |] else [| p + Rng.int rng 3 |]
            in
            agree
              (outcome (fun () -> Platform.release pf bad))
              (outcome (fun () -> R.release rf bad))));
        if !go && Platform.free_count pf <> R.free_count rf then ok := false
      done;
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
  (* ptilde = 2 but the schedule uses 4 processors: wasteful, yet feasible,
     so [Validate.check] must accept it (the p_max bound of Equation (5) is
     a property of reasonable algorithms, Section 3.2, not of
     feasibility). *)
  let task = Task.make ~id:0 (roofline ~w:4. ~ptilde:2) in
  let dag = dag_of [ task ] [] in
  let b = Schedule.builder ~p:4 ~n:1 in
  Schedule.add b (placement ~task_id:0 ~start:0. ~finish:2. ~procs:[| 0; 1; 2; 3 |]);
  let s = Schedule.finalize b in
  Alcotest.(check bool) "feasible" true (Result.is_ok (Validate.check ~dag s));
  Alcotest.(check bool) "exceeds p_max" true
    ((Task.analyze ~p:4 task).Task.p_max < 4)

(* The rewritten checks against the reference checker they replaced: the
   same verdict, the same messages, in the same order (an exception, if
   either raises, must be the same too).  Times come from a small set so
   that events tie heavily, and include the non-finite and signed-zero
   values [Schedule.add] accepts (attempt lists are not checked on
   construction, so they also get [neg_infinity]).  Roofline tasks with
   [ptilde = 1] run for an integer time on any allocation, so schedules
   reuse processors back to back at equal times. *)

let tie_times = [| 0.; 1.; 2.; 3.; 4.; -0.; nan; infinity |]

let random_graph rng =
  let n = Rng.int_range rng 0 10 in
  let tasks =
    List.init n (fun id ->
        if Fixtures.coin rng then
          Task.make ~id
            (roofline ~w:(float_of_int (Rng.int_range rng 1 3)) ~ptilde:1)
        else
          Task.make ~id
            (Speedup.Amdahl
               { w = Rng.float_range rng 1. 4.; d = Rng.float rng 1. }))
  in
  let edges =
    List.concat
      (List.init n (fun j ->
           List.filter_map
             (fun i -> if Rng.bernoulli rng 0.3 then Some (i, j) else None)
             (List.init j Fun.id)))
  in
  dag_of tasks edges

(* In-place Fisher–Yates shuffle. *)
let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let random_procs rng p =
  let ids = Array.init p Fun.id in
  shuffle rng ids;
  let procs = Array.sub ids 0 (Rng.int_range rng 1 p) in
  Array.sort Int.compare procs;
  procs

(* The builder stores each block as word masks and [placement] expands it
   again: at every word-boundary size, every placement must come back with
   its own fields and the very ids it was given, whether they fill words,
   straddle a boundary or sit alone at either end. *)
let prop_schedule_round_trip =
  QCheck.Test.make ~name:"placement round-trips builder blocks" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      Array.for_all
        (fun p ->
          let n = Rng.int_range rng 1 12 in
          let given =
            Array.init n (fun task_id ->
                let procs =
                  match Rng.int rng 4 with
                  | 0 -> Array.init p Fun.id
                  | 1 -> [| Fixtures.choose rng [| 0; p - 1 |] |]
                  | _ -> random_procs rng p
                in
                let start = float_of_int (Rng.int rng 5) in
                {
                  Schedule.task_id;
                  start;
                  finish = start +. float_of_int (Rng.int rng 3);
                  nprocs = Array.length procs;
                  procs;
                })
          in
          let b = Schedule.builder ~p ~n in
          Array.iter (Schedule.add b) given;
          let s = Schedule.finalize b in
          Array.for_all (fun pl -> Schedule.placement s pl.Schedule.task_id = pl)
            given)
        word_sizes)

let engine_run ?failures ~p dag =
  Sim_core.run ?failures ~seed:(Dag.n dag) ~p
    (Moldable_core.Online_scheduler.policy
       ~allocator:Moldable_core.Allocator.algorithm2_per_model ~p ())
    dag

(* Random placements of [dag]'s tasks on [p] processors, task [i] on
   [procs i], with exact, wrong or arbitrary durations, and now and then
   one task more or fewer than the graph. *)
let random_placements rng dag ~p ~procs =
  let n =
    match Rng.int rng 8 with
    | 0 -> max 0 (Dag.n dag - 1)
    | 1 -> Dag.n dag + 1
    | _ -> Dag.n dag
  in
  let b = Schedule.builder ~p ~n in
  for task_id = 0 to n - 1 do
    let procs = procs task_id in
    let nprocs = Array.length procs in
    let exact =
      if task_id < Dag.n dag then Task.time (Dag.task dag task_id) nprocs
      else 1.
    in
    let start = Fixtures.choose rng tie_times in
    let finish =
      match Rng.int rng 4 with
      | 0 -> Fixtures.choose rng tie_times
      | 1 -> start +. exact +. 0.5
      | _ -> start +. exact
    in
    let pl = { Schedule.task_id; start; finish; nprocs; procs } in
    try Schedule.add b pl
    with Invalid_argument _ ->
      Schedule.add b { pl with start = 0.; finish = exact }
  done;
  Schedule.finalize b

(* A quarter are the engine's (valid) schedules; the rest are random
   placements. *)
let random_schedule rng dag =
  let p = Rng.int_range rng 1 5 in
  if Rng.int rng 4 = 0 then (engine_run ~p dag).Sim_core.schedule
  else random_placements rng dag ~p ~procs:(fun _ -> random_procs rng p)

(* A quarter are the attempts of an engine run under random failures; the
   rest give each task 0 to 3 attempts, task [i]'s on [procs i], with now
   and then a wrong number, a wrong allocation, a wrong duration or a
   wrong failure flag, in a shuffled order. *)
let random_attempts_on rng dag ~p ~procs =
  if Rng.int rng 4 = 0 then
    let q = Rng.float rng 0.6 in
    let r = engine_run ~failures:(Sim_core.bernoulli ~q) ~p dag in
    (p, Metrics.attempts r.Sim_core.metrics)
  else begin
    let times = Array.append tie_times [| neg_infinity |] in
    let atts = ref [] in
    for task_id = 0 to Dag.n dag - 1 do
      let count = Rng.int rng 4 in
      for a = 1 to count do
        let procs = procs task_id in
        let nprocs =
          if Rng.int rng 8 = 0 then Rng.int_range rng 1 (p + 1)
          else Array.length procs
        in
        let start = Fixtures.choose rng times in
        let exact = Task.time (Dag.task dag task_id) nprocs in
        let finish =
          match Rng.int rng 4 with
          | 0 -> Fixtures.choose rng times
          | 1 -> start +. (2. *. exact)
          | _ -> start +. exact
        in
        let attempt = if Rng.int rng 6 = 0 then Rng.int_range rng 0 3 else a in
        let failed = (a < count) <> (Rng.int rng 6 = 0) in
        atts :=
          { Metrics.task_id; attempt; start; finish; nprocs; procs; failed }
          :: !atts
      done
    done;
    let atts = Array.of_list !atts in
    shuffle rng atts;
    (p, Array.to_list atts)
  end

let random_attempts rng dag =
  let p = Rng.int_range rng 1 5 in
  random_attempts_on rng dag ~p ~procs:(fun _ -> random_procs rng p)

(* Blocks that span several 62-processor words, on up to 300 processors.
   Half the draws give each of the first [n] blocks a processor set of its
   own (a slice of a shuffled [0, p)), so that nothing overlaps and the
   word-mask sweep decides alone; the other half draw every block
   independently, as a run of consecutive ids across a 62- or 63-bit word
   boundary or as a random subset, so that blocks collide. *)
let wide_procs rng ~p ~n =
  if Fixtures.coin rng then begin
    let ids = Array.init p Fun.id in
    shuffle rng ids;
    let per = max 1 (p / max 1 n) and drawn = ref 0 in
    fun _ ->
      let lo = !drawn * per mod p in
      incr drawn;
      let b = Array.sub ids lo (min per (p - lo)) in
      Array.sort Int.compare b;
      b
  end
  else fun _ ->
    if Fixtures.coin rng then begin
      let w = Fixtures.choose rng [| 62; 63 |] in
      let edge = w * Rng.int rng ((p / w) + 1) in
      let lo = max 0 (edge - Rng.int rng 70) in
      let hi = min (p - 1) (max lo (edge + Rng.int rng 70)) in
      Array.init (hi - lo + 1) (fun q -> lo + q)
    end
    else random_procs rng p

(* Room for [n] disjoint blocks. *)
let wide_p rng ~n = Rng.int_range rng (max 1 n) 300

let random_wide_schedule rng dag =
  let n = Dag.n dag + 1 in
  let p = wide_p rng ~n in
  if Rng.int rng 4 = 0 then (engine_run ~p dag).Sim_core.schedule
  else random_placements rng dag ~p ~procs:(wide_procs rng ~p ~n)

let random_wide_attempts rng dag =
  let n = 3 * Dag.n dag in
  let p = wide_p rng ~n in
  random_attempts_on rng dag ~p ~procs:(wide_procs rng ~p ~n)

let verdict f =
  match f () with
  | r -> Ok r
  | exception e -> Error (Printexc.to_string e)

let prop_validate_check_matches_reference =
  QCheck.Test.make ~name:"check = reference check on random schedules"
    ~count:400
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dag = random_graph rng in
      let sched = random_schedule rng dag in
      verdict (fun () -> Validate.check ~dag sched)
      = verdict (fun () -> Moldable_oracle.Validate_reference.check ~dag sched))

let prop_validate_attempts_matches_reference =
  QCheck.Test.make
    ~name:"check_attempts = reference check_attempts on random attempts"
    ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dag = random_graph rng in
      let p, attempts = random_attempts rng dag in
      verdict (fun () -> Validate.check_attempts ~dag ~p attempts)
      = verdict (fun () ->
            Moldable_oracle.Validate_reference.check_attempts ~dag ~p attempts))

let prop_validate_wide_matches_reference =
  QCheck.Test.make ~name:"check = reference check across processor words"
    ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dag = random_graph rng in
      let sched = random_wide_schedule rng dag in
      verdict (fun () -> Validate.check ~dag sched)
      = verdict (fun () -> Moldable_oracle.Validate_reference.check ~dag sched))

let prop_validate_wide_attempts_matches_reference =
  QCheck.Test.make
    ~name:"check_attempts = reference across processor words" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dag = random_graph rng in
      let p, attempts = random_wide_attempts rng dag in
      verdict (fun () -> Validate.check_attempts ~dag ~p attempts)
      = verdict (fun () ->
            Moldable_oracle.Validate_reference.check_attempts ~dag ~p attempts))

(* The checker's own allocation, per task, on a valid 10^4-task schedule at
   P = 256.  The reference checker's tuple list and its sort read 128 minor
   words per task on this input. *)
let test_validate_words_per_task () =
  let n = 10_000 and p = 256 in
  let dag =
    Moldable_workloads.Random_dag.independent ~rng:(Rng.create 5) ~n
      ~kind:Speedup.Kind_amdahl ()
  in
  let sched = (engine_run ~p dag).Sim_core.schedule in
  ignore (Validate.check ~dag sched);
  let w0 = Gc.minor_words () in
  let v = Validate.check ~dag sched in
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool) "valid" true (Result.is_ok v);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per task (budget 30)" words)
    true (words <= 30.)

(* ---------------------------------------------------------------- Engine *)

let fifo_policy ~p alloc =
  Moldable_core.Online_scheduler.policy
    ~allocator:(Fixtures.fixed_allocator alloc) ~p ()

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
  match Metrics.events_from r.Sim_core.metrics 0 with
  | [ (t0, Metrics.Ready 0);
      (t1, Metrics.Start (0, 1));
      (t2, Metrics.Finish 0) ] ->
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
      (function t, Metrics.Ready 1 -> Some t | _ -> None)
      (Metrics.events_from r.Sim_core.metrics 0)
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
        Fixtures.choose rng
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
          qt prop_platform_matches_reference;
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
          qt prop_schedule_round_trip;
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
          Alcotest.test_case "validate words per task" `Quick
            test_validate_words_per_task;
          qt prop_validate_check_matches_reference;
          qt prop_validate_attempts_matches_reference;
          qt prop_validate_wide_matches_reference;
          qt prop_validate_wide_attempts_matches_reference;
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
