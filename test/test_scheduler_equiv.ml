(* Differential tests for the heap-backed online scheduler: the
   priority-indexed queue of Online_scheduler.policy must reproduce the
   seed's sorted-list policy (the test oracle
   [Moldable_oracle.Reference.policy]) event for event, for every priority
   rule, on any graph and under every failure model.  The clairvoyant and
   rigid list schedulers, which share that queue, must reproduce their old
   sorted lists the same way. *)

open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_core
open Moldable_util

let event_pp ppf (t, (e : Metrics.event)) =
  match e with
  | Metrics.Ready i -> Format.fprintf ppf "%.17g:ready %d" t i
  | Metrics.Start (i, q) -> Format.fprintf ppf "%.17g:start %d on %d" t i q
  | Metrics.Finish i -> Format.fprintf ppf "%.17g:finish %d" t i
  | Metrics.Failed (i, k) ->
    Format.fprintf ppf "%.17g:failed %d attempt %d" t i k

let trace (r : Sim_core.result) = Metrics.events_from r.Sim_core.metrics 0

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

(* Failed attempts re-reveal their task, so under failures the policy
   analyzes and allocates some tasks more than once. *)
let random_failures rng =
  match Rng.int rng 3 with
  | 0 -> ("never", Sim_core.never)
  | 1 ->
    let q = Rng.float rng 0.6 in
    (Printf.sprintf "bernoulli %g" q, Sim_core.bernoulli ~q)
  | _ ->
    let k = Rng.int_range rng 0 3 in
    (Printf.sprintf "at_most %d" k, Sim_core.at_most ~k)

let policies_agree ~dag ~p ~failures:(failures_name, failures) ~seed ~priority
    ~allocator =
  let run policy = Sim_core.run ~seed ~failures ~p policy dag in
  let heap = run (Online_scheduler.policy ~priority ~allocator ~p ()) in
  let list_ =
    run (Moldable_oracle.Reference.policy ~priority ~allocator ~p ())
  in
  if trace_equal (trace heap) (trace list_) then true
  else
    QCheck.Test.fail_report
      (Printf.sprintf "trace mismatch [%s, %s, %s, P=%d]\n%s"
         priority.Priority.name allocator.Allocator.name failures_name p
         (show_traces (trace heap) (trace list_)))

let prop_trace_equivalence =
  QCheck.Test.make ~name:"heap queue reproduces sorted-list traces (all rules)"
    ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dag = random_dag rng in
      let p = Rng.int_range rng 1 64 in
      let failures = random_failures rng in
      List.for_all
        (fun priority ->
          policies_agree ~dag ~p ~failures ~seed ~priority
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
      let failures = random_failures rng in
      List.for_all
        (fun priority ->
          policies_agree ~dag ~p ~failures ~seed ~priority
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
      let failures = random_failures rng in
      List.for_all
        (fun allocator ->
          policies_agree ~dag ~p ~failures ~seed ~priority:Priority.fifo
            ~allocator)
        [
          Allocator.min_time;
          Allocator.sequential;
          Fixtures.fixed_allocator 3;
          Allocator.no_cap ~mu:0.2;
        ])

(* The clairvoyant and rigid list schedulers run on Algorithm 1's queue;
   their old sorted lists ([Reference.list_with], ...) are the oracle.
   Ranks come in three flavours: distinct, heavily tied and 20% NaN. *)
let same_run (a : Sim_core.result) (b : Sim_core.result) =
  let sa = a.Sim_core.schedule and sb = b.Sim_core.schedule in
  Schedule.n sa = Schedule.n sb
  && List.for_all
       (fun i -> Schedule.placement sa i = Schedule.placement sb i)
       (List.init (Schedule.n sa) Fun.id)
  && trace_equal (trace a) (trace b)

let prop_list_schedulers_match_reference =
  QCheck.Test.make
    ~name:"Offline and Rigid list schedulers reproduce their sorted lists"
    ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let module Ref = Moldable_oracle.Reference in
      let module Rigid = Moldable_indep.Rigid in
      let rng = Rng.create seed in
      let dag = random_dag rng in
      let n = Dag.n dag in
      let p = Rng.int_range rng 1 40 in
      let allocations = Array.init n (fun _ -> Rng.int_range rng 1 p) in
      let priority =
        match Rng.int rng 3 with
        | 0 -> Array.init n (fun _ -> Rng.float rng 100.)
        | 1 -> Array.init n (fun _ -> float_of_int (Rng.int rng 3))
        | _ ->
          Array.init n (fun _ ->
              if Rng.float rng 1. < 0.2 then Float.nan else Rng.float rng 10.)
      in
      let fail what =
        QCheck.Test.fail_reportf "%s differs from its reference (P=%d)" what p
      in
      (same_run
         (Offline.list_with ~allocations ~priority ~p dag)
         (Ref.list_with ~allocations ~priority ~p dag)
      || fail "Offline.list_with")
      && List.for_all
           (fun allocator ->
             same_run
               (Offline.critical_path_list ~allocator ~p dag)
               (Ref.critical_path_list ~allocator ~p dag)
             || fail ("Offline.critical_path_list " ^ allocator.Allocator.name))
           [ Allocator.algorithm2_per_model; Allocator.min_time;
             Allocator.sequential ]
      &&
      (* Rigid needs an independent set; a trailing duplicate job checks
         that the last job for an id wins in both. *)
      (Dag.n_edges dag <> 0
      || n = 0
      ||
      let jobs =
        List.init n (fun id ->
            { Rigid.id; procs = allocations.(id); time = 1. })
        @ [ { Rigid.id = Rng.int rng n; procs = Rng.int_range rng 1 p;
              time = 1. } ]
      in
      same_run
        (Rigid.list_schedule ~p ~jobs dag)
        (Ref.rigid_list_schedule ~p ~jobs dag)
      || fail "Rigid.list_schedule"))

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
    (trace_equal (trace cached) (trace reference))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "scheduler_equiv"
    [
      ( "trace equivalence",
        [
          qt prop_trace_equivalence;
          qt prop_trace_equivalence_arbitrary;
          qt prop_trace_equivalence_allocators;
          qt prop_list_schedulers_match_reference;
        ] );
      ( "analysis cache",
        [
          Alcotest.test_case "cache saves model evaluations" `Quick
            test_cache_saves_model_evaluations;
        ] );
    ]
