open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_core
open Moldable_util

let check_float = Alcotest.(check (float 1e-9))

let task m = Task.make ~id:0 m
let roofline ~w ~ptilde = Speedup.Roofline { w; ptilde }
let comm ~w ~c = Speedup.Communication { w; c }
let amdahl ~w ~d = Speedup.Amdahl { w; d }

(* -------------------------------------------------------------------- Mu *)

let test_mu_max_value () =
  check_float "(3-sqrt5)/2" ((3. -. sqrt 5.) /. 2.) Mu.mu_max

let test_delta_at_mu_max () =
  (* delta(mu_max) = 1 by construction (beta >= 1 must be feasible). *)
  Alcotest.(check (float 1e-9)) "delta = 1" 1. (Mu.delta Mu.mu_max)

let test_delta_monotone () =
  (* delta decreases as mu increases. *)
  Alcotest.(check bool) "decreasing" true
    (Mu.delta 0.2 > Mu.delta 0.3 && Mu.delta 0.3 > Mu.delta 0.38)

let test_delta_rejects () =
  Alcotest.(check bool) "mu = 0 rejected" true
    (try ignore (Mu.delta 0.); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "mu = 0.5 rejected" true
    (try ignore (Mu.delta 0.5); false with Invalid_argument _ -> true)

let test_mu_defaults_admissible () =
  List.iter
    (fun kind ->
      let mu = Mu.default kind in
      Alcotest.(check bool)
        (Speedup.kind_name kind ^ " admissible")
        true
        (mu > 0. && mu <= Mu.mu_max +. 1e-9 && Mu.delta mu >= 1. -. 1e-9))
    [ Speedup.Kind_roofline; Speedup.Kind_communication; Speedup.Kind_amdahl;
      Speedup.Kind_general; Speedup.Kind_arbitrary ]

let test_cap () =
  Alcotest.(check int) "ceil(0.382*100)" 39 (Mu.cap ~mu:0.382 ~p:100);
  Alcotest.(check int) "at least 1" 1 (Mu.cap ~mu:0.01 ~p:3);
  Alcotest.(check int) "exact integer" 25 (Mu.cap ~mu:0.25 ~p:100)

let test_cap_matches_exact_rational () =
  (* For mu = a/b the exact cap is ceil(a*p/b) = (a*p + b - 1) / b in integer
     arithmetic.  The float product mu *. p can land a few ulps above the
     exact value (e.g. 0.3239 *. 10000. = 3239.0000000000005), which inflated
     ceil by one processor in the seed.  Sweep every p up to 10^4 against the
     integer oracle. *)
  let ratios = [ (1, 5); (1, 4); (3, 10); (1, 3); (19, 100); (3239, 10000) ] in
  List.iter
    (fun (a, b) ->
      let mu = float_of_int a /. float_of_int b in
      for p = 1 to 10_000 do
        let exact = max 1 (((a * p) + b - 1) / b) in
        let got = Mu.cap ~mu ~p in
        if got <> exact then
          Alcotest.failf "cap mismatch for mu=%d/%d p=%d: got %d, exact %d" a b
            p got exact
      done)
    ratios

(* ------------------------------------------------------------- Allocator *)

(* Step 1 of Algorithm 2 alone: the initial allocation of its decision. *)
let p_star ~mu ~p t =
  (Allocator.explain (Allocator.algorithm2 ~mu) (Task.analyze ~p t)).Task.p_star

let test_initial_respects_beta () =
  let rng = Rng.create 3 in
  for _ = 1 to 200 do
    let w = Rng.log_uniform rng 1. 1000. in
    let m =
      match Rng.int rng 3 with
      | 0 -> roofline ~w ~ptilde:(Rng.int_range rng 1 64)
      | 1 -> comm ~w ~c:(Rng.log_uniform rng 0.01 2.)
      | _ -> amdahl ~w ~d:(Rng.log_uniform rng 0.01 2.)
    in
    let p = Rng.int_range rng 1 256 in
    let mu = Rng.float_range rng 0.05 Mu.mu_max in
    let t = task m in
    let q = p_star ~mu ~p t in
    let a = Task.analyze ~p t in
    let beta = Task.beta a q in
    if not (Fcmp.leq ~eps:1e-6 beta (Mu.delta mu)) then
      Alcotest.failf "beta %.4f > delta %.4f for %s (P=%d, mu=%.3f)" beta
        (Mu.delta mu) (Speedup.to_string m) p mu
  done

let test_initial_minimizes_alpha () =
  (* Exhaustive check on small instances: no feasible allocation has smaller
     area. *)
  let rng = Rng.create 4 in
  for _ = 1 to 100 do
    let m =
      match Rng.int rng 3 with
      | 0 -> roofline ~w:(Rng.log_uniform rng 1. 100.) ~ptilde:(Rng.int_range rng 1 16)
      | 1 -> comm ~w:(Rng.log_uniform rng 1. 100.) ~c:(Rng.log_uniform rng 0.05 2.)
      | _ -> amdahl ~w:(Rng.log_uniform rng 1. 100.) ~d:(Rng.log_uniform rng 0.05 2.)
    in
    let p = Rng.int_range rng 1 32 in
    let mu = Rng.float_range rng 0.05 Mu.mu_max in
    let t = task m in
    let a = Task.analyze ~p t in
    let bound = Mu.delta mu *. a.Task.t_min in
    let q = p_star ~mu ~p t in
    for q' = 1 to a.Task.p_max do
      if Fcmp.leq (Task.time t q') bound && Fcmp.lt (Task.area t q') (Task.area t q)
      then
        Alcotest.failf
          "allocation %d (area %.3f) beaten by %d (area %.3f) for %s" q
          (Task.area t q) q' (Task.area t q') (Speedup.to_string m)
    done
  done

(* A roofline task with constant area forces the initial allocation above the
   cap; Step 2 must reduce it to ceil(mu P). *)
let test_algorithm2_cap () =
  let p = 100 in
  let mu = Mu.default Speedup.Kind_roofline in
  let t = task (roofline ~w:100. ~ptilde:100) in
  let q = Allocator.allocate (Allocator.algorithm2 ~mu) ~p t in
  Alcotest.(check int) "capped at ceil(mu P)" (Mu.cap ~mu ~p) q

let test_algorithm2_small_tasks_uncapped () =
  (* A sequential-ish task keeps its small allocation. *)
  let p = 100 in
  let mu = 0.3 in
  let t = task (roofline ~w:5. ~ptilde:2) in
  let q = Allocator.allocate (Allocator.algorithm2 ~mu) ~p t in
  Alcotest.(check int) "keeps 2" 2 q

let test_no_cap_ablation () =
  let p = 100 in
  let mu = Mu.default Speedup.Kind_roofline in
  let t = task (roofline ~w:100. ~ptilde:100) in
  let capped = Allocator.allocate (Allocator.algorithm2 ~mu) ~p t in
  let uncapped = Allocator.allocate (Allocator.no_cap ~mu) ~p t in
  Alcotest.(check bool) "no_cap exceeds cap" true (uncapped > capped)

let test_trivial_allocators () =
  let p = 64 in
  let t = task (amdahl ~w:100. ~d:1.) in
  Alcotest.(check int) "sequential" 1 (Allocator.allocate Allocator.sequential ~p t);
  Alcotest.(check int) "all_p" p (Allocator.allocate Allocator.all_p ~p t);
  Alcotest.(check int) "min_time = p_max" 64
    (Allocator.allocate Allocator.min_time ~p t);
  Alcotest.(check int) "fixed clamped" p
    (Allocator.allocate (Fixtures.fixed_allocator 1000) ~p t)

let test_arbitrary_allocator_scan () =
  (* W-shaped time: feasible minima exist at several points; the scan must
     pick the smallest-area feasible one. *)
  let time p = [| 10.; 4.; 6.; 3.; 9. |].(min (p - 1) 4) in
  let t = task (Speedup.Arbitrary { name = "w-shape"; time }) in
  (* p_max = 4 (t = 3 minimum), a_min over 1..4: areas 10, 8, 18, 12 -> 8. *)
  let q = p_star ~mu:0.2 ~p:5 t in
  (* delta(0.2) = 3.75, bound = 3.75 * 3 = 11.25: feasible p: t(p) <= 11.25
     -> {1(10),2(4),3(6),4(3)}; smallest area feasible = p=2 (area 8). *)
  Alcotest.(check int) "scan picks min-area feasible" 2 q

let test_per_model_allocator_uses_model_mu () =
  let p = 1000 in
  let t_roof = task (roofline ~w:1000. ~ptilde:1000) in
  let t_amd = Task.make ~id:1 (amdahl ~w:1000. ~d:0.5) in
  let q_roof = Allocator.allocate Allocator.algorithm2_per_model ~p t_roof in
  let q_amd = Allocator.allocate Allocator.algorithm2_per_model ~p t_amd in
  Alcotest.(check int) "roofline cap" (Mu.cap ~mu:(Mu.default Speedup.Kind_roofline) ~p) q_roof;
  Alcotest.(check bool) "amdahl allocation bounded by its cap" true
    (q_amd <= Mu.cap ~mu:(Mu.default Speedup.Kind_amdahl) ~p)

let prop_algorithm2_within_bounds =
  QCheck.Test.make ~name:"algorithm2 allocation always in [1, min(p_max, cap)]"
    ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let kind =
        Fixtures.choose rng
          [| Speedup.Kind_roofline; Speedup.Kind_communication;
             Speedup.Kind_amdahl; Speedup.Kind_general |]
      in
      let m = Moldable_workloads.Params.random rng kind in
      let p = Rng.int_range rng 1 512 in
      let mu = Rng.float_range rng 0.05 Mu.mu_max in
      let t = task m in
      let q = Allocator.allocate (Allocator.algorithm2 ~mu) ~p t in
      let a = Task.analyze ~p t in
      q >= 1 && q <= Mu.cap ~mu ~p && q <= a.Task.p_max)

(* The rules built by [Allocator.two_step] and [Allocator.make] against the
   per-rule decision code they replaced ([Moldable_oracle.Alloc_reference]):
   every field of every decision, floats bit for bit, on all six models
   (non-monotonic arbitrary speedups included) with P in 1..2048. *)
let random_model rng =
  match Rng.int rng 6 with
  | 0 -> Moldable_workloads.Params.random rng Speedup.Kind_roofline
  | 1 -> Moldable_workloads.Params.random rng Speedup.Kind_communication
  | 2 -> Moldable_workloads.Params.random rng Speedup.Kind_amdahl
  | 3 -> Moldable_workloads.Params.random rng Speedup.Kind_general
  | 4 -> Moldable_workloads.Params.random rng Speedup.Kind_power
  | _ ->
    let w = Rng.log_uniform rng 1. 1000. in
    let knee = Rng.int_range rng 1 64 in
    let time =
      match Rng.int rng 3 with
      | 0 -> fun q -> w /. float_of_int (min q knee)
      | 1 -> fun q -> (w /. float_of_int q) +. (0.05 *. w)
      | _ ->
        (* non-monotonic: a bump at every third allocation *)
        fun q ->
          (w /. float_of_int q) +. if q mod 3 = 0 then 0.5 *. w else 0.
    in
    Speedup.Arbitrary { name = "rand"; time }

let same_decision (d : Task.decision)
    (e : Moldable_oracle.Alloc_reference.decision) =
  let bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  d.p_star = e.p_star
  && bits d.beta_budget e.beta_budget
  && bits d.step1_bound e.step1_bound
  && d.cap = e.cap
  && d.cap_applied = e.cap_applied
  && d.final_alloc = e.final_alloc
  && d.candidates_scanned = e.candidates_scanned

let prop_rules_match_reference =
  QCheck.Test.make
    ~name:"every rule decides as the per-rule reference code did" ~count:400
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let module Old = Moldable_oracle.Alloc_reference in
      let rng = Rng.create seed in
      let t = task (random_model rng) in
      let p = Rng.int_range rng 1 2048 in
      let a = Task.analyze ~p t in
      let mus =
        [ 0.05; 0.1; 0.15; 0.2; 0.25; 0.3; 0.35; Mu.mu_max ]
        @ List.map Mu.default
            [ Speedup.Kind_communication; Speedup.Kind_amdahl;
              Speedup.Kind_general ]
      in
      let rho = Rng.float_range rng 1. 3. in
      let pairs =
        (Allocator.algorithm2_per_model, Old.algorithm2_per_model)
        :: (Improved_alloc.per_model, Old.per_model)
        :: (Allocator.min_time, Old.min_time)
        :: (Allocator.sequential, Old.sequential)
        :: (Allocator.all_p, Old.all_p)
        :: (let q = Rng.int_range rng 1 (2 * p) in
            (Fixtures.fixed_allocator q, Old.fixed q))
        :: List.concat_map
             (fun mu ->
               [ (Allocator.algorithm2 ~mu, Old.algorithm2 ~mu);
                 (Allocator.no_cap ~mu, Old.no_cap ~mu);
                 (Improved_alloc.allocator ~mu ~rho, Old.allocator ~mu ~rho);
                 (let mu = mu +. 0.1 in
                  (Improved_alloc.allocator ~mu ~rho, Old.allocator ~mu ~rho))
               ])
             mus
      in
      List.for_all
        (fun ((rule : Allocator.t), (old : Old.t)) ->
          let final = old.Old.allocate_analyzed a in
          (rule.Allocator.name = old.Old.name
          && same_decision (Allocator.explain rule a) (old.Old.explain a)
          && Allocator.allocate rule ~p t = old.Old.allocate ~p t
          && Allocator.allocate rule ~p t = final)
          || QCheck.Test.fail_reportf "%s differs from its reference (P=%d)"
               rule.Allocator.name p)
        pairs)

(* -------------------------------------------------------------- Priority *)

let item ~id ~alloc ~t_min ~seq =
  {
    Priority.task = Task.make ~id (roofline ~w:t_min ~ptilde:1);
    alloc;
    t_min;
    seq;
  }

let test_fifo_order () =
  let a = item ~id:0 ~alloc:1 ~t_min:5. ~seq:0 in
  let b = item ~id:1 ~alloc:9 ~t_min:1. ~seq:1 in
  Alcotest.(check bool) "arrival order" true (Priority.fifo.Priority.compare a b < 0)

let test_longest_first () =
  let a = item ~id:0 ~alloc:1 ~t_min:1. ~seq:0 in
  let b = item ~id:1 ~alloc:1 ~t_min:9. ~seq:1 in
  Alcotest.(check bool) "longer first" true
    (Priority.longest_first.Priority.compare b a < 0)

let test_widest_narrowest () =
  let a = item ~id:0 ~alloc:2 ~t_min:1. ~seq:0 in
  let b = item ~id:1 ~alloc:7 ~t_min:1. ~seq:1 in
  Alcotest.(check bool) "widest" true (Priority.widest_first.Priority.compare b a < 0);
  Alcotest.(check bool) "narrowest" true
    (Priority.narrowest_first.Priority.compare a b < 0)

let test_priority_tiebreak_stable () =
  let a = item ~id:0 ~alloc:3 ~t_min:4. ~seq:0 in
  let b = item ~id:1 ~alloc:3 ~t_min:4. ~seq:1 in
  List.iter
    (fun (p : Priority.t) ->
      Alcotest.(check bool) (p.Priority.name ^ " stable") true
        (p.Priority.compare a b < 0))
    Priority.all

(* Regression for the comparator keys: every priority must induce a total
   antisymmetric transitive order on items even when a float key is
   poisoned (NaN, infinities) — a partial order corrupts the ready queue's
   heap invariant silently.  The t_min key is set after construction so
   NaN bypasses Task.make's validation, exactly like a float bug upstream
   would deliver it. *)
let prop_priority_total_order =
  let keys = [| 1.; 2.; 0.5; nan; infinity; neg_infinity |] in
  let sign c = Stdlib.compare c 0 in
  let item_of (ki, alloc, seq) =
    { (item ~id:seq ~alloc ~t_min:1. ~seq) with Priority.t_min = keys.(ki) }
  in
  QCheck.Test.make
    ~name:"priority order total, antisymmetric, transitive (incl. NaN keys)"
    ~count:1000
    QCheck.(
      triple
        (triple (int_range 0 5) (int_range 1 8) (int_range 0 20))
        (triple (int_range 0 5) (int_range 1 8) (int_range 0 20))
        (triple (int_range 0 5) (int_range 1 8) (int_range 0 20)))
    (fun (ia, ib, ic) ->
      let a = item_of ia and b = item_of ib and c = item_of ic in
      List.for_all
        (fun (p : Priority.t) ->
          let cmp = p.Priority.compare in
          sign (cmp a b) = -sign (cmp b a)
          && cmp a a = 0 && cmp b b = 0
          && ((not (cmp a b <= 0 && cmp b c <= 0)) || cmp a c <= 0))
        Priority.all)

(* The ready queue against the generic Prefix_min under each rule's
   comparator: one random script of pushes (allocations 0..k+1, the outer
   two rejected by both), pops and peeks (free counts -1..k+2), with heavy
   key ties and NaN, signed-zero and infinite keys, replayed for the five
   rules and Offline's ranked order (key rank.(id), tie id). *)
let prop_ranked_queue_matches_prefix_min =
  let keys = [| 1.; 2.; 2.; 0.5; nan; infinity; neg_infinity; 0.; -0. |] in
  let pick rng = keys.(Rng.int rng (Array.length keys)) in
  let raises f =
    match f () with () -> false | exception Invalid_argument _ -> true
  in
  QCheck.Test.make
    ~name:"ranked queue = Prefix_min under Priority.compare (5 rules + \
           ranked order, NaN/inf keys, ties)"
    ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let k = Rng.int_range rng 1 12 in
      let m = Rng.int_range rng 0 300 in
      let rank = Array.init m (fun _ -> pick rng) in
      let script =
        Array.init m (fun j ->
            match Rng.int rng 10 with
            | 0 | 1 | 2 | 3 | 4 ->
              let w = float_of_int (Rng.int_range rng 1 3) in
              `Push
                {
                  Priority.task = Task.make ~id:j (roofline ~w ~ptilde:2);
                  alloc = Rng.int_range rng 0 (k + 1);
                  t_min = pick rng;
                  seq = j;
                }
            | 5 | 6 | 7 -> `Pop (Rng.int_range rng (-1) (k + 2))
            | _ -> `Peek (Rng.int_range rng (-1) (k + 2)))
      in
      (* Each rule as the ready queue sees it (a key, a tie) beside the
         comparator Prefix_min orders by: a discipline's [rank_key] and
         arrival number against its [compare], and the ranked order's
         rank.(id) and id against the comparator they define. *)
      let of_priority (rule : Priority.t) =
        ( rule.Priority.name,
          (fun (i : Priority.item) ->
            Priority.rank_key rule.Priority.rank i.Priority.task
              ~alloc:i.Priority.alloc ~t_min:i.Priority.t_min),
          (fun (i : Priority.item) -> i.Priority.seq),
          rule.Priority.compare )
      in
      let ranked =
        let key (i : Priority.item) = rank.(i.Priority.task.Task.id)
        and tie (i : Priority.item) = i.Priority.task.Task.id in
        ( "ranked",
          key,
          tie,
          fun a b ->
            match Float.compare (key b) (key a) with
            | 0 -> Int.compare (tie a) (tie b)
            | c -> c )
      in
      List.for_all
        (fun (name, key, tie, cmp) ->
          let pm = Prefix_min.create ~k ~cmp in
          let rq = Ranked_queue.create ~k in
          let first free =
            match Ranked_queue.fit rq ~free with
            | 0 -> None
            | alloc -> Some alloc
          in
          let of_item = Option.map (fun (i : Priority.item) ->
              (i.Priority.task.Task.id, i.Priority.alloc)) in
          let step j op =
            (match op with
            | `Push (item : Priority.item) ->
              let alloc = item.Priority.alloc in
              let push_rq () =
                Ranked_queue.push rq ~alloc ~key:(key item) ~tie:(tie item)
                  ~id:j
              in
              if alloc < 1 || alloc > k then
                raises (fun () -> Prefix_min.push pm ~key:alloc item)
                && raises push_rq
              else begin
                Prefix_min.push pm ~key:alloc item;
                push_rq ();
                true
              end
            | `Pop free ->
              of_item (Prefix_min.pop_prefix pm ~key:free)
              = Option.map
                  (fun alloc -> (Ranked_queue.pop rq ~alloc, alloc))
                  (first free)
            | `Peek free ->
              Option.map snd (of_item (Prefix_min.peek_prefix pm ~key:free))
              = first free)
            && Prefix_min.length pm = Ranked_queue.length rq
          in
          let ok = ref true and j = ref 0 in
          while !ok && !j < m do
            ok := step !j script.(!j);
            incr j
          done;
          !ok
          || QCheck.Test.fail_reportf "%s: k=%d, step %d differs" name k
               (!j - 1))
        (ranked :: List.map of_priority Priority.all))

(* ------------------------------------------------------ Online scheduler *)

let simple_dag tasks edges = Dag.create ~tasks ~edges

let test_online_respects_fifo () =
  (* Three independent 1-proc tasks on 2 processors: FIFO starts 0 and 1
     first; task 2 waits. *)
  let tasks =
    List.init 3 (fun id -> Task.make ~id (roofline ~w:2. ~ptilde:1))
  in
  let dag = simple_dag tasks [] in
  let r =
    Online_scheduler.run ~allocator:Allocator.sequential ~p:2 dag
  in
  Validate.check_exn ~dag r.Sim_core.schedule;
  let pl = Schedule.placement r.Sim_core.schedule 2 in
  check_float "task 2 starts second wave" 2. pl.Schedule.start

let test_online_list_scheduling_skips () =
  (* Queue: [wide; narrow]; only the narrow one fits -> list scheduling must
     skip the wide head and start the narrow task. *)
  let wide = Task.make ~id:0 (roofline ~w:4. ~ptilde:4) in
  let narrow = Task.make ~id:1 (roofline ~w:2. ~ptilde:1) in
  let blocker = Task.make ~id:2 (roofline ~w:3. ~ptilde:3) in
  (* Blocker occupies 3 of 4 procs; ids order the queue as wide then narrow. *)
  let dag = simple_dag [ wide; narrow; blocker ] [] in
  let r = Online_scheduler.run ~allocator:Allocator.min_time ~p:4 dag in
  Validate.check_exn ~dag r.Sim_core.schedule;
  (* blocker (id 2) is third in FIFO yet starts at 0 because wide (4 procs)
     fits first; verify narrow also starts at 0 by skipping. *)
  let s0 = (Schedule.placement r.Sim_core.schedule 0).Schedule.start in
  let s1 = (Schedule.placement r.Sim_core.schedule 1).Schedule.start in
  let s2 = (Schedule.placement r.Sim_core.schedule 2).Schedule.start in
  check_float "wide starts immediately" 0. s0;
  Alcotest.(check bool) "narrow or blocker fills the gap" true
    (s1 = 1. || s2 = 1. || s1 = 0. || s2 = 0.)

let test_online_priority_changes_order () =
  (* Two tasks; longest-first runs the long one first on a single procesor. *)
  let short = Task.make ~id:0 (roofline ~w:1. ~ptilde:1) in
  let long_ = Task.make ~id:1 (roofline ~w:9. ~ptilde:1) in
  let dag = simple_dag [ short; long_ ] [] in
  let r =
    Online_scheduler.run ~priority:Priority.longest_first
      ~allocator:Allocator.sequential ~p:1 dag
  in
  let s_long = (Schedule.placement r.Sim_core.schedule 1).Schedule.start in
  check_float "long first" 0. s_long

let test_online_makespan_helper () =
  let tasks = List.init 2 (fun id -> Task.make ~id (roofline ~w:2. ~ptilde:2)) in
  let dag = simple_dag tasks [ (0, 1) ] in
  check_float "helper agrees"
    (Schedule.makespan
       (Online_scheduler.run ~allocator:Allocator.min_time ~p:2 dag)
         .Sim_core.schedule)
    (Online_scheduler.makespan ~allocator:Allocator.min_time ~p:2 dag)

(* ------------------------------------------------------------- Baselines *)

let test_all_p_serializes () =
  let tasks = List.init 3 (fun id -> Task.make ~id (amdahl ~w:4. ~d:1.)) in
  let dag = simple_dag tasks [] in
  let r = Sim_core.run ~p:4 (Baselines.all_p_list ~p:4) dag in
  Validate.check_exn ~dag r.Sim_core.schedule;
  check_float "3 * (4/4 + 1)" 6. (Schedule.makespan r.Sim_core.schedule)

let test_sequential_baseline () =
  let tasks = List.init 4 (fun id -> Task.make ~id (roofline ~w:2. ~ptilde:8)) in
  let dag = simple_dag tasks [] in
  let r = Sim_core.run ~p:4 (Baselines.sequential_list ~p:4) dag in
  check_float "all parallel on 1 proc each" 2.
    (Schedule.makespan r.Sim_core.schedule)

let test_ect_uses_free_processors () =
  (* One task, plenty of processors: ECT gives it min(p_max, free) = p_max. *)
  let dag = simple_dag [ Task.make ~id:0 (roofline ~w:8. ~ptilde:4) ] [] in
  let r = Sim_core.run ~p:16 (Baselines.ect ~p:16) dag in
  let pl = Schedule.placement r.Sim_core.schedule 0 in
  Alcotest.(check int) "p_max procs" 4 pl.Schedule.nprocs

let test_ect_shrinks_to_fit () =
  (* Two big tasks on 4 procs: the second gets the leftover single proc...
     actually ECT pops the head and allocates min(p_max, free) right away. *)
  let tasks = List.init 2 (fun id -> Task.make ~id (amdahl ~w:4. ~d:1.)) in
  let dag = simple_dag tasks [] in
  let r = Sim_core.run ~p:4 (Baselines.ect ~p:4) dag in
  Validate.check_exn ~dag r.Sim_core.schedule;
  let p0 = (Schedule.placement r.Sim_core.schedule 0).Schedule.nprocs in
  let p1 = (Schedule.placement r.Sim_core.schedule 1).Schedule.nprocs in
  Alcotest.(check int) "first takes all" 4 p0;
  Alcotest.(check bool) "second waited or shrank" true (p1 >= 1 && p1 <= 4)

let prop_all_policies_valid =
  QCheck.Test.make ~name:"all baseline schedules validate on random DAGs"
    ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dag =
        Moldable_workloads.Random_dag.erdos_renyi ~rng ~n:20 ~edge_prob:0.15
          ~kind:Speedup.Kind_general ()
      in
      let p = Rng.int_range rng 2 32 in
      List.for_all
        (fun (_, make) ->
          let r = Sim_core.run ~p (make ~p) dag in
          Result.is_ok (Validate.check ~dag r.Sim_core.schedule))
        Baselines.named)

(* With no tracer and no registry, a reveal decides through
   [Allocator.decide] and keys a built-in rule's task without an item.  Fed
   the same tasks, the policy must hand them out with [explain]'s final
   allocation, in the order the rule's [compare] gives the items built
   from [explain]'s decision and [Task.analyze]'s t_min. *)
let prop_untraced_reveal_matches_explain =
  QCheck.Test.make
    ~name:"untraced reveal allocates and orders as explain, every rule"
    ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let p = Rng.int_range rng 1 512 in
      let n = Rng.int_range rng 1 40 in
      let tasks = Array.init n (fun id -> Task.make ~id (random_model rng)) in
      let mu = Rng.float_range rng 0.05 Mu.mu_max in
      let rho = Rng.float_range rng 1. 3. in
      let allocators =
        [
          Allocator.algorithm2 ~mu; Allocator.algorithm2_per_model;
          Allocator.no_cap ~mu; Improved_alloc.allocator ~mu ~rho;
          Improved_alloc.per_model; Allocator.min_time; Allocator.sequential;
          Allocator.all_p;
        ]
      in
      let pairs =
        List.concat_map
          (fun a -> List.map (fun r -> (a, r)) Priority.all)
          allocators
      in
      List.for_all
        (fun ((allocator : Allocator.t), (rule : Priority.t)) ->
          let items =
            Array.map
              (fun t ->
                let a = Task.analyze ~p t in
                {
                  Priority.task = t;
                  alloc = (Allocator.explain allocator a).Task.final_alloc;
                  t_min = a.Task.t_min;
                  seq = t.Task.id;
                })
              tasks
          in
          let expected =
            List.map
              (fun (i : Priority.item) ->
                (i.Priority.task.Task.id, i.Priority.alloc))
              (List.stable_sort rule.Priority.compare (Array.to_list items))
          in
          let pol = Online_scheduler.policy ~priority:rule ~allocator ~p () in
          Array.iter (fun t -> pol.Sim_core.on_ready ~now:0. t) tasks;
          let rec drain acc =
            match pol.Sim_core.next_launch ~now:0. ~free:p with
            | None -> List.rev acc
            | Some launch -> drain (launch :: acc)
          in
          let cell = Array.make 1 nan in
          let kernel = Allocator.kernel allocator ~p in
          (drain [] = expected
          && Array.for_all
               (fun (i : Priority.item) ->
                 Allocator.decide kernel i.Priority.task cell = i.Priority.alloc
                 && Float.equal cell.(0) i.Priority.t_min)
               items)
          || QCheck.Test.fail_reportf "%s under %s differs (P=%d)"
               allocator.Allocator.name rule.Priority.name p)
        pairs)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "core"
    [
      ( "mu",
        [
          Alcotest.test_case "mu_max value" `Quick test_mu_max_value;
          Alcotest.test_case "delta at mu_max" `Quick test_delta_at_mu_max;
          Alcotest.test_case "delta monotone" `Quick test_delta_monotone;
          Alcotest.test_case "delta rejects" `Quick test_delta_rejects;
          Alcotest.test_case "defaults admissible" `Quick
            test_mu_defaults_admissible;
          Alcotest.test_case "cap" `Quick test_cap;
          Alcotest.test_case "cap matches exact rational" `Quick
            test_cap_matches_exact_rational;
        ] );
      ( "allocator",
        [
          Alcotest.test_case "initial respects beta constraint" `Quick
            test_initial_respects_beta;
          Alcotest.test_case "initial minimizes alpha" `Quick
            test_initial_minimizes_alpha;
          Alcotest.test_case "cap applied" `Quick test_algorithm2_cap;
          Alcotest.test_case "small tasks uncapped" `Quick
            test_algorithm2_small_tasks_uncapped;
          Alcotest.test_case "no_cap ablation" `Quick test_no_cap_ablation;
          Alcotest.test_case "trivial allocators" `Quick test_trivial_allocators;
          Alcotest.test_case "arbitrary-model scan" `Quick
            test_arbitrary_allocator_scan;
          Alcotest.test_case "per-model mu" `Quick
            test_per_model_allocator_uses_model_mu;
          qt prop_algorithm2_within_bounds;
          qt prop_rules_match_reference;
        ] );
      ( "priority",
        [
          Alcotest.test_case "fifo" `Quick test_fifo_order;
          Alcotest.test_case "longest first" `Quick test_longest_first;
          Alcotest.test_case "widest/narrowest" `Quick test_widest_narrowest;
          Alcotest.test_case "stable tiebreak" `Quick
            test_priority_tiebreak_stable;
          qt prop_priority_total_order;
          qt prop_ranked_queue_matches_prefix_min;
        ] );
      ( "online_scheduler",
        [
          Alcotest.test_case "fifo waves" `Quick test_online_respects_fifo;
          Alcotest.test_case "list scheduling skips" `Quick
            test_online_list_scheduling_skips;
          Alcotest.test_case "priority changes order" `Quick
            test_online_priority_changes_order;
          Alcotest.test_case "makespan helper" `Quick test_online_makespan_helper;
          qt prop_untraced_reveal_matches_explain;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "all-P serializes" `Quick test_all_p_serializes;
          Alcotest.test_case "sequential parallelism" `Quick
            test_sequential_baseline;
          Alcotest.test_case "ECT takes p_max" `Quick
            test_ect_uses_free_processors;
          Alcotest.test_case "ECT adapts" `Quick test_ect_shrinks_to_fit;
          qt prop_all_policies_valid;
        ] );
    ]
