open Moldable_graph
open Moldable_model
open Moldable_sim
open Moldable_adversary

let check_float eps = Alcotest.(check (float eps))

(* ----------------------------------------------------------- Generic_graph *)

let tiny_models () =
  ( Speedup.Roofline { w = 1.; ptilde = 4 },
    Speedup.Amdahl { w = 2.; d = 0.5 },
    Speedup.Amdahl { w = 3.; d = 1. } )

let test_generic_structure () =
  let a, b, c = tiny_models () in
  let dag, roles = Generic_graph.build ~x:3 ~y:2 ~a ~b ~c in
  Alcotest.(check int) "(X+1)Y+1 tasks" 9 (Dag.n dag);
  Alcotest.(check int) "c id last" 8 roles.Generic_graph.c_id;
  (* Layer 1: B ids 0..2, A id 3. *)
  Alcotest.(check (array int)) "a ids" [| 3; 7 |] roles.Generic_graph.a_ids;
  Alcotest.(check (array int)) "b layer 1" [| 0; 1; 2 |]
    roles.Generic_graph.b_ids.(0)

let test_generic_b_before_a_ids () =
  let a, b, c = tiny_models () in
  let _, roles = Generic_graph.build ~x:4 ~y:3 ~a ~b ~c in
  Array.iteri
    (fun i a_id ->
      Array.iter
        (fun b_id ->
          Alcotest.(check bool) "B id < A id within layer" true (b_id < a_id))
        roles.Generic_graph.b_ids.(i))
    roles.Generic_graph.a_ids

let test_generic_dependencies () =
  let a, b, c = tiny_models () in
  let dag, roles = Generic_graph.build ~x:2 ~y:3 ~a ~b ~c in
  let a1 = roles.Generic_graph.a_ids.(0) in
  let a2 = roles.Generic_graph.a_ids.(1) in
  let a3 = roles.Generic_graph.a_ids.(2) in
  (* A1 -> A2 and A1 -> every B of layer 2. *)
  Alcotest.(check bool) "A1->A2" true (List.mem a2 (Dag.successors dag a1));
  Array.iter
    (fun b_id ->
      Alcotest.(check bool) "A1->B2j" true (List.mem b_id (Dag.successors dag a1)))
    roles.Generic_graph.b_ids.(1);
  (* A_Y -> C and only A_Y -> C. *)
  Alcotest.(check (list int)) "A3 successors" [ roles.Generic_graph.c_id ]
    (Dag.successors dag a3);
  (* Layer 1 tasks are sources. *)
  Alcotest.(check (list int)) "sources"
    (Array.to_list roles.Generic_graph.b_ids.(0) @ [ a1 ])
    (Dag.sources dag)

let test_generic_height () =
  let a, b, c = tiny_models () in
  let dag, _ = Generic_graph.build ~x:2 ~y:4 ~a ~b ~c in
  Alcotest.(check int) "height Y+1" 5 (Moldable_graph.Topo.height dag)

let test_generic_rejects () =
  let a, b, c = tiny_models () in
  Alcotest.(check bool) "x=0 rejected" true
    (try
       ignore (Generic_graph.build ~x:0 ~y:1 ~a ~b ~c);
       false
     with Invalid_argument _ -> true)

(* --------------------------------------------------------------- Instances *)

let test_roofline_instance () =
  let inst = Instances.roofline ~p:100 in
  Alcotest.(check int) "one task" 1 (Dag.n inst.Instances.dag);
  check_float 1e-9 "T_alt = 1" 1. inst.Instances.alternative_makespan;
  (* p_C = ceil(mu P) = 39, T = 100/39. *)
  check_float 1e-9 "predicted" (100. /. 39.) inst.Instances.predicted_online;
  let r = Instances.measured_ratio inst in
  check_float 1e-9 "ratio = predicted/1" (100. /. 39.) r;
  Alcotest.(check bool) "below limit" true (r <= inst.Instances.limit_ratio)

let test_roofline_ratio_approaches_limit () =
  let r1 = Instances.measured_ratio (Instances.roofline ~p:50) in
  let r2 = Instances.measured_ratio (Instances.roofline ~p:5000) in
  Alcotest.(check bool) "growing toward 2.618" true (r2 > r1);
  Alcotest.(check bool) "close at P=5000" true (Float.abs (r2 -. 2.618) < 0.01)

let check_instance_consistency inst =
  (* Alternative schedule is feasible and has the declared makespan. *)
  Validate.check_exn ~dag:inst.Instances.dag inst.Instances.alternative;
  check_float 1e-6 "alt makespan"
    inst.Instances.alternative_makespan
    (Schedule.makespan inst.Instances.alternative);
  (* The online run reproduces the proof's predicted makespan exactly. *)
  let result = Instances.run_online inst in
  check_float 1e-6 "online = predicted" inst.Instances.predicted_online
    (Schedule.makespan result.Moldable_sim.Sim_core.schedule);
  (* Measured ratio below the theorem's limit (it converges from below). *)
  let ratio = Instances.measured_ratio inst in
  Alcotest.(check bool) "ratio <= limit" true
    (ratio <= inst.Instances.limit_ratio +. 1e-6)

let test_communication_instance () =
  check_instance_consistency (Instances.communication ~p:60)

let test_communication_convergence () =
  let r1 = Instances.measured_ratio (Instances.communication ~p:30) in
  let r2 = Instances.measured_ratio (Instances.communication ~p:300) in
  Alcotest.(check bool) "monotone-ish growth" true (r2 > r1);
  Alcotest.(check bool) "within 5% of 3.514 at P=300" true
    (r2 > 3.514 *. 0.95)

let test_amdahl_instance () =
  check_instance_consistency (Instances.amdahl ~k:8)

let test_amdahl_convergence () =
  let r1 = Instances.measured_ratio (Instances.amdahl ~k:6) in
  let r2 = Instances.measured_ratio (Instances.amdahl ~k:30) in
  Alcotest.(check bool) "growth" true (r2 > r1);
  Alcotest.(check bool) "beyond 4.2 at k=30" true (r2 > 4.2)

let test_general_instance () =
  check_instance_consistency (Instances.general ~k:8)

let test_general_convergence () =
  let r = Instances.measured_ratio (Instances.general ~k:30) in
  Alcotest.(check bool) "beyond 4.7 at k=30" true (r > 4.7);
  Alcotest.(check bool) "below limit 5.247" true (r < 5.247)

let test_instance_guards () =
  Alcotest.(check bool) "comm p<8" true
    (try
       ignore (Instances.communication ~p:4);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "amdahl k<4" true
    (try
       ignore (Instances.amdahl ~k:3);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "general k<6" true
    (try
       ignore (Instances.general ~k:5);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------- Proof-step allocation claims *)

(* The lower-bound proofs assert specific allocations for each task group;
   the allocator must reproduce them on the materialized instances. *)

let alloc_of inst id =
  let allocator =
    Moldable_core.Allocator.algorithm2 ~mu:inst.Instances.mu
  in
  allocator.Moldable_core.Allocator.allocate ~p:inst.Instances.p
    (Dag.task inst.Instances.dag id)

let roles_of inst =
  (* Recover representative task ids from the id layout of Generic_graph:
     layer 1 is B_{1,1}..B_{1,X}, A_1; C is last. *)
  let dag = inst.Instances.dag in
  let y = Moldable_graph.Topo.height dag - 1 in
  let x = (Dag.n dag - 1 - y) / y in
  (0, x, Dag.n dag - 1) (* (a B task, the A_1 task, the C task) *)

let test_comm_proof_allocations () =
  List.iter
    (fun p ->
      let inst = Instances.communication ~p in
      let b_id, a_id, c_id = roles_of inst in
      let cap =
        Moldable_core.Mu.cap ~mu:inst.Instances.mu ~p:inst.Instances.p
      in
      Alcotest.(check int) "p_B = 2" 2 (alloc_of inst b_id);
      Alcotest.(check int) "p_A = ceil(mu P)" cap (alloc_of inst a_id);
      Alcotest.(check int) "p_C = 1" 1 (alloc_of inst c_id))
    [ 10; 50; 250 ]

let test_comm_proof_tmin_b () =
  (* The proof shows t_min_B = t_B(3). *)
  let inst = Instances.communication ~p:50 in
  let b_id, _, _ = roles_of inst in
  let a = Task.analyze ~p:inst.Instances.p (Dag.task inst.Instances.dag b_id) in
  Alcotest.(check int) "p_max of B = 3" 3 a.Task.p_max

let test_amdahl_proof_allocations () =
  List.iter
    (fun k ->
      let inst = Instances.amdahl ~k in
      let b_id, a_id, c_id = roles_of inst in
      let mu = inst.Instances.mu in
      let delta = Moldable_core.Mu.delta mu in
      let cap = Moldable_core.Mu.cap ~mu ~p:inst.Instances.p in
      let fk = float_of_int k in
      (* Proof: K/(delta-1) - 2 <= p_B <= K/(delta-1) + 1. *)
      let p_b = alloc_of inst b_id in
      Alcotest.(check bool)
        (Printf.sprintf "p_B = %d in proof window around %.2f" p_b
           (fk /. (delta -. 1.)))
        true
        (float_of_int p_b >= (fk /. (delta -. 1.)) -. 2.
        && float_of_int p_b <= (fk /. (delta -. 1.)) +. 1.);
      Alcotest.(check int) "p_A = ceil(mu P)" cap (alloc_of inst a_id);
      Alcotest.(check int) "p_C = 1" 1 (alloc_of inst c_id))
    [ 6; 12; 24 ]

let test_general_proof_allocations () =
  let inst = Instances.general ~k:12 in
  let b_id, a_id, c_id = roles_of inst in
  let cap = Moldable_core.Mu.cap ~mu:inst.Instances.mu ~p:inst.Instances.p in
  Alcotest.(check int) "p_A capped" cap (alloc_of inst a_id);
  Alcotest.(check int) "p_C = 1" 1 (alloc_of inst c_id);
  Alcotest.(check bool) "p_B below cap" true (alloc_of inst b_id < cap)

let test_layer_exceeds_platform () =
  (* The construction requires X p_B + p_A > P so that a layer cannot run in
     one wave — the heart of the layered worst case. *)
  List.iter
    (fun inst ->
      let dag = inst.Instances.dag in
      let y = Moldable_graph.Topo.height dag - 1 in
      let x = (Dag.n dag - 1 - y) / y in
      let b_id, a_id, _ = roles_of inst in
      let used = (x * alloc_of inst b_id) + alloc_of inst a_id in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d > P=%d" inst.Instances.name used
           inst.Instances.p)
        true
        (used > inst.Instances.p);
      (* But the B tasks alone do fit, so the layer runs B-wave then A. *)
      Alcotest.(check bool) "B wave fits" true
        (x * alloc_of inst b_id <= inst.Instances.p))
    [ Instances.communication ~p:40; Instances.amdahl ~k:8;
      Instances.general ~k:8 ]

(* ------------------------------------------------------------------ Chains *)

let test_chains_figure3 () =
  let inst = Chains.build ~ell:2 in
  Alcotest.(check int) "15 chains" 15 (Array.length inst.Chains.chains);
  Alcotest.(check int) "26 tasks" 26 (Dag.n inst.Chains.dag);
  Alcotest.(check int) "P = 32" 32 inst.Chains.p;
  (* Group sizes: 8, 4, 2, 1 chains of lengths 1..4. *)
  let count g =
    Array.fold_left (fun acc x -> if x = g then acc + 1 else acc) 0
      inst.Chains.group
  in
  Alcotest.(check int) "group 1" 8 (count 1);
  Alcotest.(check int) "group 2" 4 (count 2);
  Alcotest.(check int) "group 3" 2 (count 3);
  Alcotest.(check int) "group 4" 1 (count 4)

let test_chains_structure () =
  let inst = Chains.build ~ell:2 in
  (* Every chain is a path: in-degree <= 1, and consecutive ids linked. *)
  Array.iteri
    (fun c ids ->
      let len = Array.length ids in
      Alcotest.(check int) "length = group" inst.Chains.group.(c) len;
      for pos = 0 to len - 2 do
        Alcotest.(check (list int))
          (Printf.sprintf "chain %d link %d" c pos)
          [ ids.(pos + 1) ]
          (Dag.successors inst.Chains.dag ids.(pos))
      done)
    inst.Chains.chains

let test_chains_height_is_k () =
  let inst = Chains.build ~ell:2 in
  Alcotest.(check int) "D = K" 4 (Moldable_graph.Topo.height inst.Chains.dag)

(* --------------------------------------------------------- Chain_adversary *)

let test_figure4b_breakpoints () =
  (* The published values: t1 = 1/2, t2 = 5/6, t3 ~ 1.07, t4 ~ 1.23. *)
  let o = Chain_adversary.equal_split ~ell:2 in
  check_float 1e-9 "t1" 0.5 o.Chain_adversary.breakpoints.(0);
  check_float 1e-9 "t2" (5. /. 6.) o.Chain_adversary.breakpoints.(1);
  check_float 5e-3 "t3 ~ 1.07" 1.0647 o.Chain_adversary.breakpoints.(2);
  check_float 5e-3 "t4 ~ 1.23" 1.2314 o.Chain_adversary.breakpoints.(3);
  check_float 1e-9 "makespan = t4" o.Chain_adversary.breakpoints.(3)
    o.Chain_adversary.makespan

let test_figure4a_offline () =
  let inst = Chains.build ~ell:2 in
  let s = Chain_adversary.offline_schedule inst in
  Validate.check_exn ~dag:inst.Chains.dag s;
  check_float 1e-9 "makespan exactly 1" 1. (Schedule.makespan s);
  (* Full utilization: busy area = P * 1. *)
  check_float 1e-6 "perfect packing" (float_of_int inst.Chains.p)
    (Schedule.busy_area s)

let test_equal_split_schedule_validates () =
  let inst = Chains.build ~ell:2 in
  let s = Chain_adversary.equal_split_schedule inst in
  Validate.check_exn ~dag:inst.Chains.dag s;
  let o = Chain_adversary.equal_split ~ell:2 in
  check_float 1e-9 "schedule realizes the breakpoints"
    o.Chain_adversary.makespan (Schedule.makespan s)

let test_equal_split_beats_lemma10_bound () =
  (* Any online strategy's makespan is at least the Lemma 10 gap sum. *)
  for ell = 1 to 4 do
    let o = Chain_adversary.equal_split ~ell in
    Alcotest.(check bool)
      (Printf.sprintf "ell=%d" ell)
      true
      (o.Chain_adversary.makespan
      >= Moldable_theory.Arbitrary_lb.adversary_gap_sum ~ell -. 1e-9)
  done

let test_list_scheduling_alg2 () =
  (* Algorithm 2's static allocation on the ell=2 instance is 2 procs; list
     scheduling then yields K * t(2) = 2. *)
  let mu = Moldable_core.Mu.default Speedup.Kind_general in
  let alloc = Chain_adversary.algorithm2_alloc ~mu ~p:32 in
  Alcotest.(check int) "alloc = 2" 2 alloc;
  let o = Chain_adversary.list_scheduling ~alloc ~ell:2 in
  check_float 1e-9 "makespan 2.0" 2. o.Chain_adversary.makespan

let test_list_scheduling_breakpoints_monotone () =
  let o = Chain_adversary.list_scheduling ~alloc:2 ~ell:3 in
  let prev = ref 0. in
  Array.iter
    (fun t ->
      Alcotest.(check bool) "monotone" true (t >= !prev);
      prev := t)
    o.Chain_adversary.breakpoints

let test_list_scheduling_respects_lemma10 () =
  for ell = 1 to 3 do
    let o = Chain_adversary.list_scheduling ~alloc:2 ~ell in
    Alcotest.(check bool)
      (Printf.sprintf "ell=%d" ell)
      true
      (o.Chain_adversary.makespan
      >= Moldable_theory.Arbitrary_lb.adversary_gap_sum ~ell -. 1e-9)
  done

let test_omega_log_growth () =
  (* The ratio online/offline grows with D = K (offline is exactly 1). *)
  let m2 = (Chain_adversary.equal_split ~ell:2).Chain_adversary.makespan in
  let m4 = (Chain_adversary.equal_split ~ell:4).Chain_adversary.makespan in
  Alcotest.(check bool) "grows with ell" true (m4 > m2)

let test_list_scheduling_guards () =
  Alcotest.(check bool) "alloc 0" true
    (try
       ignore (Chain_adversary.list_scheduling ~alloc:0 ~ell:2);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "adversary"
    [
      ( "generic_graph",
        [
          Alcotest.test_case "structure" `Quick test_generic_structure;
          Alcotest.test_case "B before A ids" `Quick test_generic_b_before_a_ids;
          Alcotest.test_case "dependencies" `Quick test_generic_dependencies;
          Alcotest.test_case "height" `Quick test_generic_height;
          Alcotest.test_case "rejects bad sizes" `Quick test_generic_rejects;
        ] );
      ( "instances",
        [
          Alcotest.test_case "roofline (Thm 5)" `Quick test_roofline_instance;
          Alcotest.test_case "roofline converges" `Quick
            test_roofline_ratio_approaches_limit;
          Alcotest.test_case "communication (Thm 6)" `Quick
            test_communication_instance;
          Alcotest.test_case "communication converges" `Slow
            test_communication_convergence;
          Alcotest.test_case "amdahl (Thm 7)" `Quick test_amdahl_instance;
          Alcotest.test_case "amdahl converges" `Slow test_amdahl_convergence;
          Alcotest.test_case "general (Thm 8)" `Quick test_general_instance;
          Alcotest.test_case "general converges" `Slow test_general_convergence;
          Alcotest.test_case "guards" `Quick test_instance_guards;
        ] );
      ( "proof_steps",
        [
          Alcotest.test_case "comm allocations (Thm 6)" `Quick
            test_comm_proof_allocations;
          Alcotest.test_case "comm p_max of B = 3" `Quick test_comm_proof_tmin_b;
          Alcotest.test_case "amdahl allocations (Thm 7)" `Quick
            test_amdahl_proof_allocations;
          Alcotest.test_case "general allocations (Thm 8)" `Quick
            test_general_proof_allocations;
          Alcotest.test_case "layer exceeds platform" `Quick
            test_layer_exceeds_platform;
        ] );
      ( "chains",
        [
          Alcotest.test_case "Figure 3 sizes" `Quick test_chains_figure3;
          Alcotest.test_case "chain structure" `Quick test_chains_structure;
          Alcotest.test_case "height = K" `Quick test_chains_height_is_k;
        ] );
      ( "chain_adversary",
        [
          Alcotest.test_case "Figure 4(b) breakpoints" `Quick
            test_figure4b_breakpoints;
          Alcotest.test_case "Figure 4(a) offline" `Quick test_figure4a_offline;
          Alcotest.test_case "equal-split schedule validates" `Quick
            test_equal_split_schedule_validates;
          Alcotest.test_case "Lemma 10 bound respected" `Quick
            test_equal_split_beats_lemma10_bound;
          Alcotest.test_case "Algorithm 2 static allocation" `Quick
            test_list_scheduling_alg2;
          Alcotest.test_case "breakpoints monotone" `Quick
            test_list_scheduling_breakpoints_monotone;
          Alcotest.test_case "list scheduling >= Lemma 10" `Quick
            test_list_scheduling_respects_lemma10;
          Alcotest.test_case "Omega(log) growth" `Quick test_omega_log_growth;
          Alcotest.test_case "guards" `Quick test_list_scheduling_guards;
        ] );
    ]
