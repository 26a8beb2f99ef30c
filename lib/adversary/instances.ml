open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_core

type t = {
  name : string;
  dag : Dag.t;
  p : int;
  mu : float;
  alternative : Schedule.t;
  alternative_makespan : float;
  limit_ratio : float;
  predicted_online : float;
}

let iota n = Array.init n (fun i -> i)
let range lo n = Array.init n (fun i -> lo + i)

(* Placements take explicit finish times so that back-to-back placements on
   the same processors share the exact float boundary (computing
   [start +. dur] would drift by an ulp and trip the validator's sweep). *)
let place b ~task_id ~start ~finish ~procs =
  Schedule.add b
    { Schedule.task_id; start; finish; nprocs = Array.length procs; procs }

(* Theorem 5: a single roofline task with w = P, ptilde = P. *)
let roofline ~p =
  if p < 3 then invalid_arg "Instances.roofline: need p >= 3";
  let mu = Mu.default Speedup.Kind_roofline in
  let speedup = Speedup.Roofline { w = float_of_int p; ptilde = p } in
  let task = Task.make ~label:"C" ~id:0 speedup in
  let dag = Dag.create ~tasks:[ task ] ~edges:[] in
  let b = Schedule.builder ~p ~n:1 in
  place b ~task_id:0 ~start:0. ~finish:1. ~procs:(iota p);
  let alternative = Schedule.finalize b in
  let alloc = (Allocator.algorithm2 ~mu).Allocator.allocate ~p task in
  {
    name = "roofline (Thm 5)";
    dag;
    p;
    mu;
    alternative;
    alternative_makespan = 1.;
    limit_ratio = Moldable_theory.Lower_bounds.roofline ~mu;
    predicted_online = Task.time task alloc;
  }

(* Allocations Algorithm 2 would choose, for building predictions. *)
let alloc_of ~mu ~p task = (Allocator.algorithm2 ~mu).Allocator.allocate ~p task

(* The layered online makespan the proofs predict when a layer of X B-tasks
   cannot run alongside the A-task: Y rounds of (all B in parallel, then A),
   followed by C alone. *)
let layered_prediction ~mu ~p ~y (roles : Generic_graph.roles) dag =
  let task i = Dag.task dag i in
  let t_of i =
    let tk = task i in
    Task.time tk (alloc_of ~mu ~p tk)
  in
  let a1 = roles.Generic_graph.a_ids.(0) in
  let b1 = roles.Generic_graph.b_ids.(0).(0) in
  (float_of_int y *. (t_of b1 +. t_of a1)) +. t_of roles.Generic_graph.c_id

(* Theorem 6: communication model. *)
let communication ~p =
  if p < 8 then invalid_arg "Instances.communication: need p >= 8";
  let mu = Mu.default Speedup.Kind_communication in
  let delta = Mu.delta mu in
  let fp = float_of_int p in
  let x = (int_of_float (floor ((1. -. mu) *. fp /. 2.))) + 1 in
  let y = p - 3 in
  let w_b = (6. *. delta /. (3. -. delta)) +. (1. /. fp) in
  let w_c = delta *. float_of_int x *. w_b in
  let c_c = float_of_int x *. w_b *. (0.5 -. (delta /. 6.)) in
  let a = Speedup.Roofline { w = 1.; ptilde = p } in
  let b = Speedup.Communication { w = w_b; c = 1. } in
  let c = Speedup.Communication { w = w_c; c = c_c } in
  let dag, roles = Generic_graph.build ~x ~y ~a ~b ~c in
  (* Alternative schedule of the proof: all A's sequentially on P processors,
     then C on 3 processors while the B's run on one processor each, in X
     rounds of exactly Y = P - 3 tasks. *)
  let builder = Schedule.builder ~p ~n:(Dag.n dag) in
  let t_a_star = 1. /. fp in
  for i = 0 to y - 1 do
    place builder
      ~task_id:roles.Generic_graph.a_ids.(i)
      ~start:(float_of_int i *. t_a_star)
      ~finish:(float_of_int (i + 1) *. t_a_star)
      ~procs:(iota p)
  done;
  let t0 = float_of_int y *. t_a_star in
  place builder ~task_id:roles.Generic_graph.c_id ~start:t0
    ~finish:(t0 +. (float_of_int x *. w_b))
    ~procs:(iota 3);
  for r = 0 to x - 1 do
    for i = 0 to y - 1 do
      place builder
        ~task_id:roles.Generic_graph.b_ids.(i).(r)
        ~start:(t0 +. (float_of_int r *. w_b))
        ~finish:(t0 +. (float_of_int (r + 1) *. w_b))
        ~procs:[| 3 + i |]
    done
  done;
  let alternative = Schedule.finalize builder in
  Validate.check_exn ~dag alternative;
  {
    name = "communication (Thm 6)";
    dag;
    p;
    mu;
    alternative;
    alternative_makespan = t0 +. (float_of_int x *. w_b);
    limit_ratio = Moldable_theory.Lower_bounds.communication ~mu;
    predicted_online = layered_prediction ~mu ~p ~y roles dag;
  }

(* Theorems 7 and 8 share one construction; only mu and the declared model
   family differ. *)
let amdahl_like ~name ~mu ~limit ~k ~make_a ~make_b ~make_c =
  let delta = Mu.delta mu in
  let p = k * k in
  let fk = float_of_int k in
  let a = make_a fk and b = make_b fk and c = make_c fk delta in
  let task_b_probe = Task.make ~id:0 b in
  let p_b = alloc_of ~mu ~p task_b_probe in
  let x = int_of_float (floor (fk *. fk *. (1. -. mu) /. float_of_int p_b)) + 1 in
  let y = int_of_float (floor (fk *. (fk -. delta) /. float_of_int x)) in
  if y < 1 then
    invalid_arg
      (Printf.sprintf "Instances.%s: k=%d too small (Y=0 layers)" name k);
  let dag, roles = Generic_graph.build ~x ~y ~a ~b ~c in
  (* Alternative schedule: A's sequentially on all P processors; then every B
     on its own processor and C on ceil((delta-1)K) processors, all in
     parallel. *)
  let builder = Schedule.builder ~p ~n:(Dag.n dag) in
  let t_a_star = 1. /. fk in
  for i = 0 to y - 1 do
    place builder
      ~task_id:roles.Generic_graph.a_ids.(i)
      ~start:(float_of_int i *. t_a_star)
      ~finish:(float_of_int (i + 1) *. t_a_star)
      ~procs:(iota p)
  done;
  let t0 = float_of_int y *. t_a_star in
  let t_b_star = Task.time (Dag.task dag roles.Generic_graph.b_ids.(0).(0)) 1 in
  for i = 0 to y - 1 do
    for j = 0 to x - 1 do
      place builder
        ~task_id:roles.Generic_graph.b_ids.(i).(j)
        ~start:t0 ~finish:(t0 +. t_b_star)
        ~procs:[| (i * x) + j |]
    done
  done;
  let q_c = int_of_float (ceil ((delta -. 1.) *. fk)) in
  assert ((x * y) + q_c <= p);
  let t_c_star = Task.time (Dag.task dag roles.Generic_graph.c_id) q_c in
  place builder ~task_id:roles.Generic_graph.c_id ~start:t0
    ~finish:(t0 +. t_c_star)
    ~procs:(range (x * y) q_c);
  let alternative = Schedule.finalize builder in
  Validate.check_exn ~dag alternative;
  {
    name;
    dag;
    p;
    mu;
    alternative;
    alternative_makespan = t0 +. Float.max t_b_star t_c_star;
    limit_ratio = limit;
    predicted_online = layered_prediction ~mu ~p ~y roles dag;
  }

let amdahl ~k =
  if k < 4 then invalid_arg "Instances.amdahl: need k >= 4";
  let mu = Mu.default Speedup.Kind_amdahl in
  amdahl_like ~name:"amdahl (Thm 7)" ~mu
    ~limit:(Moldable_theory.Lower_bounds.amdahl ~mu)
    ~k
    ~make_a:(fun fk -> Speedup.Roofline { w = fk; ptilde = max_int / 2 })
    ~make_b:(fun fk -> Speedup.Amdahl { w = fk; d = 1. })
    ~make_c:(fun fk delta -> Speedup.Amdahl { w = (delta -. 1.) *. fk; d = fk })

let general ~k =
  if k < 6 then invalid_arg "Instances.general: need k >= 6";
  let mu = Mu.default Speedup.Kind_general in
  amdahl_like ~name:"general (Thm 8)" ~mu
    ~limit:(Moldable_theory.Lower_bounds.general ~mu)
    ~k
    ~make_a:(fun fk ->
      Speedup.General { w = fk; ptilde = max_int / 2; d = 0.; c = 0. })
    ~make_b:(fun fk ->
      Speedup.General { w = fk; ptilde = max_int / 2; d = 1.; c = 0. })
    ~make_c:(fun fk delta ->
      Speedup.General
        { w = (delta -. 1.) *. fk; ptilde = max_int / 2; d = fk; c = 0. })

let run_online t =
  let allocator = Allocator.algorithm2 ~mu:t.mu in
  let result = Online_scheduler.run ~allocator ~p:t.p t.dag in
  Validate.check_exn ~dag:t.dag result.Sim_core.schedule;
  result

let measured_ratio t =
  let result = run_online t in
  Schedule.makespan result.Sim_core.schedule /. t.alternative_makespan
