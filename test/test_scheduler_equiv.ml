(* Differential tests for the heap-backed online scheduler: the
   priority-indexed queue plus analysis cache of Online_scheduler.policy
   must reproduce the seed's sorted-list policy (the test oracle
   [Moldable_oracle.Reference.policy]) event for event, for every priority
   rule, on any graph.  Also covers the Task.Cache memoization contract. *)

open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_core
open Moldable_util

let event_pp ppf (t, (e : Sim_core.event)) =
  match e with
  | Sim_core.Ready i -> Format.fprintf ppf "%.17g:ready %d" t i
  | Sim_core.Start (i, q) -> Format.fprintf ppf "%.17g:start %d on %d" t i q
  | Sim_core.Finish i -> Format.fprintf ppf "%.17g:finish %d" t i
  | Sim_core.Failed (i, k) ->
    Format.fprintf ppf "%.17g:failed %d attempt %d" t i k

let trace_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (ta, ea) (tb, eb) -> Float.equal ta tb && ea = eb)
       a b

let show_traces a b =
  let render tr =
    String.concat "; "
      (List.map (fun ev -> Format.asprintf "%a" event_pp ev) tr)
  in
  Printf.sprintf "heap: %s\nlist: %s" (render a) (render b)

let random_dag rng =
  let kind =
    match Rng.int rng 5 with
    | 0 -> Speedup.Kind_roofline
    | 1 -> Speedup.Kind_communication
    | 2 -> Speedup.Kind_amdahl
    | 3 -> Speedup.Kind_general
    | _ -> Speedup.Kind_power
  in
  match Rng.int rng 3 with
  | 0 ->
    Moldable_workloads.Random_dag.layered ~rng
      ~n_layers:(Rng.int_range rng 2 6)
      ~width:(Rng.int_range rng 1 8)
      ~edge_prob:(Rng.float_range rng 0.05 0.6)
      ~kind ()
  | 1 ->
    Moldable_workloads.Random_dag.independent ~rng
      ~n:(Rng.int_range rng 1 30)
      ~kind ()
  | _ ->
    Moldable_workloads.Random_dag.erdos_renyi ~rng
      ~n:(Rng.int_range rng 2 25)
      ~edge_prob:(Rng.float_range rng 0.05 0.4)
      ~kind ()

(* Arbitrary-speedup graphs reach the scan/monotonic-guard paths of the
   allocator that the closed forms never touch; include non-monotonic time
   functions on purpose. *)
let arbitrary_dag rng =
  let n = Rng.int_range rng 1 20 in
  let tasks =
    List.init n (fun id ->
        let w = Rng.log_uniform rng 1. 100. in
        let shape = Rng.int rng 3 in
        let knee = Rng.int_range rng 1 16 in
        let time p =
          match shape with
          | 0 -> w /. float_of_int (min p knee) (* roofline-like, monotonic *)
          | 1 -> (w /. float_of_int p) +. (0.1 *. w) (* amdahl-like *)
          | _ ->
            (* non-monotonic: a bump at every third allocation *)
            (w /. float_of_int p)
            +. (if p mod 3 = 0 then 0.5 *. w else 0.)
        in
        Task.make ~id (Speedup.Arbitrary { name = "rand"; time }))
  in
  Dag.create ~tasks ~edges:[]

let policies_agree ~dag ~p ~priority ~allocator =
  let heap =
    Sim_core.run ~p (Online_scheduler.policy ~priority ~allocator ~p ()) dag
  in
  let list_ =
    Sim_core.run ~p
      (Moldable_oracle.Reference.policy ~priority ~allocator ~p ())
      dag
  in
  if trace_equal heap.Sim_core.trace list_.Sim_core.trace then true
  else
    QCheck.Test.fail_report
      (Printf.sprintf "trace mismatch [%s, P=%d]\n%s"
         priority.Priority.name p
         (show_traces heap.Sim_core.trace list_.Sim_core.trace))

let prop_trace_equivalence =
  QCheck.Test.make ~name:"heap queue reproduces sorted-list traces (all rules)"
    ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dag = random_dag rng in
      let p = Rng.int_range rng 1 64 in
      List.for_all
        (fun priority ->
          policies_agree ~dag ~p ~priority
            ~allocator:Allocator.algorithm2_per_model)
        Priority.all)

let prop_trace_equivalence_arbitrary =
  QCheck.Test.make
    ~name:"heap queue reproduces sorted-list traces (arbitrary speedups)"
    ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dag = arbitrary_dag rng in
      let p = Rng.int_range rng 1 48 in
      List.for_all
        (fun priority ->
          policies_agree ~dag ~p ~priority
            ~allocator:Allocator.algorithm2_per_model)
        Priority.all)

let prop_trace_equivalence_allocators =
  QCheck.Test.make
    ~name:"heap queue reproduces sorted-list traces (other allocators)"
    ~count:30
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dag = random_dag rng in
      let p = Rng.int_range rng 1 64 in
      List.for_all
        (fun allocator ->
          policies_agree ~dag ~p ~priority:Priority.fifo ~allocator)
        [
          Allocator.min_time;
          Allocator.sequential;
          Allocator.fixed 3;
          Allocator.no_cap ~mu:0.2;
        ])

let prop_cache_pointer_equal =
  QCheck.Test.make
    ~name:"analysis cache returns pointer-equal results on repeat lookups"
    ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dag = random_dag rng in
      let p = Rng.int_range rng 1 64 in
      let cache = Task.Cache.create ~p in
      let ok = ref true in
      Array.iter
        (fun t ->
          let a1 = Task.Cache.analyze cache t in
          let a2 = Task.Cache.analyze cache t in
          if not (a1 == a2) then ok := false;
          (* The cached analysis must equal a fresh one field for field. *)
          let fresh = Task.analyze ~p t in
          if
            a1.Task.p_max <> fresh.Task.p_max
            || not (Float.equal a1.Task.t_min fresh.Task.t_min)
            || not (Float.equal a1.Task.a_min fresh.Task.a_min)
          then ok := false)
        (Dag.tasks dag);
      if Task.Cache.misses cache <> Dag.n dag then ok := false;
      if Task.Cache.hits cache < Dag.n dag then ok := false;
      !ok)

let test_cache_saves_model_evaluations () =
  (* The cached hot path must evaluate the (instrumented) time functions
     strictly fewer times than the seed's double-analyze path, while
     producing the identical trace. *)
  let rng = Rng.create 7 in
  let base =
    Moldable_workloads.Random_dag.layered ~rng ~n_layers:4 ~width:6
      ~edge_prob:0.3 ~kind:Speedup.Kind_amdahl ()
  in
  let p = 32 in
  let calls = ref 0 in
  let tasks =
    Array.to_list
      (Array.map
         (fun (t : Task.t) ->
           let time q =
             incr calls;
             Task.time t q
           in
           Task.make ~id:t.Task.id
             (Speedup.Arbitrary { name = "counted"; time }))
         (Dag.tasks base))
  in
  let edges =
    List.concat_map
      (fun (t : Task.t) ->
        List.map (fun j -> (t.Task.id, j)) (Dag.successors base t.Task.id))
      (Array.to_list (Dag.tasks base))
  in
  let dag = Dag.create ~tasks ~edges in
  calls := 0;
  let cached = Online_scheduler.run ~p dag in
  let cached_calls = !calls in
  calls := 0;
  let reference =
    Sim_core.run ~p
      (Moldable_oracle.Reference.policy
         ~allocator:Allocator.algorithm2_per_model ~p ())
      dag
  in
  let reference_calls = !calls in
  Alcotest.(check bool)
    (Printf.sprintf "fewer evaluations (%d < %d)" cached_calls reference_calls)
    true
    (cached_calls < reference_calls);
  Alcotest.(check bool) "same trace" true
    (trace_equal cached.Sim_core.trace reference.Sim_core.trace)

let test_cache_rejects_bad_p () =
  Alcotest.check_raises "p >= 1"
    (Invalid_argument "Task.Cache.create: platform size must be >= 1")
    (fun () -> ignore (Task.Cache.create ~p:0))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "scheduler_equiv"
    [
      ( "trace equivalence",
        [
          qt prop_trace_equivalence;
          qt prop_trace_equivalence_arbitrary;
          qt prop_trace_equivalence_allocators;
        ] );
      ( "analysis cache",
        [
          qt prop_cache_pointer_equal;
          Alcotest.test_case "cache saves model evaluations" `Quick
            test_cache_saves_model_evaluations;
          Alcotest.test_case "rejects p < 1" `Quick test_cache_rejects_bad_p;
        ] );
    ]
