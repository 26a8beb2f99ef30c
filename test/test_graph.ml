open Moldable_model
open Moldable_graph
open Moldable_util

let check_float = Alcotest.(check (float 1e-9))

let unit_task id = Task.make ~id (Speedup.Roofline { w = 1.; ptilde = 1 })

let simple_dag edges n =
  Dag.create ~tasks:(List.init n unit_task) ~edges

(* Weighted tasks: roofline with given work and ptilde = 1, so t_min = w. *)
let weighted_dag weights edges =
  let tasks =
    List.mapi
      (fun id w -> Task.make ~id (Speedup.Roofline { w; ptilde = 1 }))
      weights
  in
  Dag.create ~tasks ~edges

(* ------------------------------------------------------------------- Dag *)

let test_create_basic () =
  let g = simple_dag [ (0, 1); (1, 2) ] 3 in
  Alcotest.(check int) "n" 3 (Dag.n g);
  Alcotest.(check int) "edges" 2 (Dag.n_edges g);
  Alcotest.(check (list int)) "succ 0" [ 1 ] (Dag.successors g 0);
  Alcotest.(check (list int)) "pred 2" [ 1 ] (Dag.predecessors g 2)

let test_create_rejects_cycle () =
  Alcotest.check_raises "cycle"
    (Invalid_argument "Dag.create: the precedence graph contains a cycle")
    (fun () -> ignore (simple_dag [ (0, 1); (1, 2); (2, 0) ] 3))

let test_create_rejects_self_loop () =
  Alcotest.check_raises "self loop"
    (Invalid_argument "Dag.create: self-loop on 1") (fun () ->
      ignore (simple_dag [ (1, 1) ] 3))

let test_create_rejects_bad_edge () =
  Alcotest.check_raises "edge out of range"
    (Invalid_argument "Dag.create: edge (0,9) out of range") (fun () ->
      ignore (simple_dag [ (0, 9) ] 3))

let test_create_rejects_bad_ids () =
  Alcotest.check_raises "id mismatch"
    (Invalid_argument
       "Dag.create: task ids must be 0..n-1 in order (position 0 has id 5)")
    (fun () -> ignore (Dag.create ~tasks:[ unit_task 5 ] ~edges:[]))

let test_duplicate_edges_coalesced () =
  let g = simple_dag [ (0, 1); (0, 1); (0, 1) ] 2 in
  Alcotest.(check int) "one edge" 1 (Dag.n_edges g)

let test_sources_sinks () =
  let g = simple_dag [ (0, 2); (1, 2); (2, 3); (2, 4) ] 5 in
  Alcotest.(check (list int)) "sources" [ 0; 1 ] (Dag.sources g);
  Alcotest.(check (list int)) "sinks" [ 3; 4 ] (Dag.sinks g)

let test_degrees () =
  let g = simple_dag [ (0, 2); (1, 2); (2, 3) ] 4 in
  Alcotest.(check int) "in 2" 2 (Dag.in_degree g 2);
  Alcotest.(check int) "in 0" 0 (Dag.in_degree g 0)

let test_empty_graph () =
  let g = Dag.create ~tasks:[] ~edges:[] in
  Alcotest.(check int) "n = 0" 0 (Dag.n g);
  Alcotest.(check (list int)) "no sources" [] (Dag.sources g)

let test_map_tasks_preserves_ids () =
  let g = simple_dag [ (0, 1) ] 2 in
  let g' =
    Dag.map_tasks
      (fun t -> { t with Task.speedup = Speedup.Amdahl { w = 5.; d = 1. } })
      g
  in
  Alcotest.(check int) "same n" 2 (Dag.n g');
  (match (Dag.task g' 0).Task.speedup with
  | Speedup.Amdahl _ -> ()
  | _ -> Alcotest.fail "speedup not replaced");
  Alcotest.check_raises "id change rejected"
    (Invalid_argument "Dag.map_tasks: the mapping must preserve task ids")
    (fun () ->
      ignore (Dag.map_tasks (fun t -> { t with Task.id = t.Task.id + 1 }) g))

(* ------------------------------------------------------------------ Topo *)

let test_topo_order_valid () =
  let g = simple_dag [ (0, 2); (1, 2); (2, 3) ] 4 in
  let order = Topo.order g in
  Alcotest.(check int) "covers all" 4 (List.length order);
  let pos = Array.make 4 0 in
  List.iteri (fun i v -> pos.(v) <- i) order;
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) "edge respected" true (pos.(a) < pos.(b)))
    (Dag.edges g)

let test_topo_deterministic () =
  let g = simple_dag [ (0, 3); (1, 3); (2, 3) ] 4 in
  Alcotest.(check (list int)) "smallest-id-first" [ 0; 1; 2; 3 ] (Topo.order g)

(* Kahn's algorithm with the smallest ready id first yields the
   lexicographically smallest topological order: at every position, the
   smallest id not yet placed whose predecessors are all placed.  The
   generators number tasks in a topological order already, so the ids are
   relabelled by a random permutation first. *)
let prop_order_lex_smallest =
  QCheck.Test.make ~name:"order is the lex-smallest topological order"
    ~count:200
    QCheck.(pair (int_range 0 10_000) bool)
    (fun (seed, layered) ->
      let rng = Rng.create seed in
      let kind = Speedup.Kind_roofline in
      let g =
        if layered then
          Moldable_workloads.Random_dag.layered ~rng ~n_layers:5 ~width:6
            ~edge_prob:0.3 ~kind ()
        else
          Moldable_workloads.Random_dag.erdos_renyi ~rng
            ~n:(Rng.int_range rng 1 30) ~edge_prob:0.15 ~kind ()
      in
      let n = Dag.n g in
      let perm = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let g =
        simple_dag (List.map (fun (a, b) -> (perm.(a), perm.(b))) (Dag.edges g)) n
      in
      let placed = Array.make n false in
      let ok =
        List.for_all
          (fun v ->
            let ready i =
              (not placed.(i))
              && List.for_all (fun j -> placed.(j)) (Dag.predecessors g i)
            in
            let smallest = List.find ready (List.init n Fun.id) in
            placed.(v) <- true;
            v = smallest)
          (Topo.order g)
      in
      ok && Array.for_all Fun.id placed)

let test_depth () =
  let g = simple_dag [ (0, 1); (1, 2); (0, 2) ] 3 in
  Alcotest.(check (array int)) "depths" [| 0; 1; 2 |] (Topo.depth g)

let test_height () =
  Alcotest.(check int) "chain height" 4
    (Topo.height (simple_dag [ (0, 1); (1, 2); (2, 3) ] 4));
  Alcotest.(check int) "antichain height" 1 (Topo.height (simple_dag [] 3));
  Alcotest.(check int) "empty height" 0
    (Topo.height (Dag.create ~tasks:[] ~edges:[]))

(* ----------------------------------------------------------------- Paths *)

let test_longest_path_chain () =
  let g = weighted_dag [ 1.; 2.; 3. ] [ (0, 1); (1, 2) ] in
  let path, len = Paths.longest_path ~weight:(fun i -> float_of_int (i + 1)) g in
  Alcotest.(check (list int)) "path" [ 0; 1; 2 ] path;
  check_float "length" 6. len

let test_longest_path_picks_heavier () =
  (* Two parallel paths 0->1->3 (weight 1+5+1) and 0->2->3 (weight 1+2+1). *)
  let g = weighted_dag [ 1.; 5.; 2.; 1. ] [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let weight i = [| 1.; 5.; 2.; 1. |].(i) in
  let path, len = Paths.longest_path ~weight g in
  Alcotest.(check (list int)) "heavy path" [ 0; 1; 3 ] path;
  check_float "length" 7. len

let test_longest_path_empty () =
  let g = Dag.create ~tasks:[] ~edges:[] in
  let path, len = Paths.longest_path ~weight:(fun _ -> 1.) g in
  Alcotest.(check (list int)) "empty path" [] path;
  check_float "empty value" 0. len

let test_bottom_levels () =
  let g = simple_dag [ (0, 1); (1, 2) ] 3 in
  Alcotest.(check (array (float 1e-9))) "bottom" [| 6.; 4.; 2. |]
    (Paths.bottom_level ~weight:(fun _ -> 2.) g)

(* ---------------------------------------------------------------- Bounds *)

let test_bounds_single_task () =
  (* Amdahl w=10 d=1 on P=10: t_min = 2, a_min = 11. *)
  let g =
    Dag.create
      ~tasks:[ Task.make ~id:0 (Speedup.Amdahl { w = 10.; d = 1. }) ]
      ~edges:[]
  in
  let b = Bounds.compute ~p:10 g in
  check_float "A_min" 11. b.Bounds.a_min_total;
  check_float "C_min" 2. b.Bounds.c_min;
  check_float "LB = max(11/10, 2)" 2. b.Bounds.lower_bound

let test_bounds_area_dominates () =
  (* Many independent sequential tasks: the area term dominates. *)
  let tasks =
    List.init 20 (fun id -> Task.make ~id (Speedup.Roofline { w = 1.; ptilde = 1 }))
  in
  let g = Dag.create ~tasks ~edges:[] in
  let b = Bounds.compute ~p:2 g in
  check_float "A_min/P = 10" 10. (b.Bounds.a_min_total /. 2.);
  check_float "C_min = 1" 1. b.Bounds.c_min;
  check_float "LB" 10. b.Bounds.lower_bound

let test_bounds_critical_path () =
  let tasks =
    List.init 3 (fun id -> Task.make ~id (Speedup.Roofline { w = 4.; ptilde = 2 }))
  in
  let g = Dag.create ~tasks ~edges:[ (0, 1); (1, 2) ] in
  let b = Bounds.compute ~p:8 g in
  (* t_min = 2 each, chained: C_min = 6; A_min = 12, A/P = 1.5. *)
  check_float "C_min" 6. b.Bounds.c_min;
  Alcotest.(check (list int)) "critical path" [ 0; 1; 2 ] b.Bounds.critical_path;
  check_float "LB" 6. b.Bounds.lower_bound

let prop_lb_positive =
  QCheck.Test.make ~name:"lower bound positive on random layered DAGs"
    ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g =
        Moldable_workloads.Random_dag.layered ~rng ~n_layers:4 ~width:4
          ~edge_prob:0.4 ~kind:Speedup.Kind_amdahl ()
      in
      let b = Bounds.compute ~p:16 g in
      b.Bounds.lower_bound > 0.
      && b.Bounds.c_min <= b.Bounds.lower_bound +. 1e-9)

(* ---------------------------------------------------------------- Dag_io *)

(* A path under a regular file cannot be opened, and /dev/full accepts the
   open but fails the write: both are [Error], not an exception. *)
let test_to_file_unwritable () =
  let g = simple_dag [ (0, 1) ] 2 in
  let file = Filename.temp_file "moldable" ".dag" in
  let expect_error path =
    match Dag_io.to_file path g with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "writing %s succeeded" path
    | exception e ->
      Alcotest.failf "writing %s raised %s" path (Printexc.to_string e)
  in
  expect_error (Filename.concat file "t.dag");
  Sys.remove file;
  if Sys.file_exists "/dev/full" then expect_error "/dev/full"

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "graph"
    [
      ( "dag",
        [
          Alcotest.test_case "create basic" `Quick test_create_basic;
          Alcotest.test_case "rejects cycle" `Quick test_create_rejects_cycle;
          Alcotest.test_case "rejects self-loop" `Quick
            test_create_rejects_self_loop;
          Alcotest.test_case "rejects bad edge" `Quick
            test_create_rejects_bad_edge;
          Alcotest.test_case "rejects bad ids" `Quick test_create_rejects_bad_ids;
          Alcotest.test_case "duplicate edges coalesced" `Quick
            test_duplicate_edges_coalesced;
          Alcotest.test_case "sources/sinks" `Quick test_sources_sinks;
          Alcotest.test_case "degrees" `Quick test_degrees;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "map_tasks" `Quick test_map_tasks_preserves_ids;
        ] );
      ( "topo",
        [
          Alcotest.test_case "order valid" `Quick test_topo_order_valid;
          Alcotest.test_case "order deterministic" `Quick test_topo_deterministic;
          qt prop_order_lex_smallest;
          Alcotest.test_case "depth" `Quick test_depth;
          Alcotest.test_case "height" `Quick test_height;
        ] );
      ( "paths",
        [
          Alcotest.test_case "longest chain" `Quick test_longest_path_chain;
          Alcotest.test_case "picks heavier branch" `Quick
            test_longest_path_picks_heavier;
          Alcotest.test_case "empty graph" `Quick test_longest_path_empty;
          Alcotest.test_case "bottom levels" `Quick test_bottom_levels;
        ] );
      ( "dag_io",
        [
          Alcotest.test_case "to_file unwritable path is an error" `Quick
            test_to_file_unwritable;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "single task" `Quick test_bounds_single_task;
          Alcotest.test_case "area dominates" `Quick test_bounds_area_dominates;
          Alcotest.test_case "critical path" `Quick test_bounds_critical_path;
          qt prop_lb_positive;
        ] );
    ]
