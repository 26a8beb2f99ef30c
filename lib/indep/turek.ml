open Moldable_model
open Moldable_graph
open Moldable_sim

type t = {
  tau_star : float;
  allocations : int array;
  schedule : Schedule.t;
  makespan : float;
}

(* Cheapest (smallest) allocation finishing within tau, or None.  Execution
   time is non-increasing up to p_max (Lemma 1), so binary search works for
   the closed-form models; Arbitrary tasks are scanned. *)
let min_alloc_for ~p ~tau task =
  let a = Task.analyze ~p task in
  if Task.time task a.Task.p_max > tau then None
  else
    match Speedup.kind task.Task.speedup with
    | Speedup.Kind_arbitrary ->
      let best = ref None in
      for q = a.Task.p_max downto 1 do
        if Task.time task q <= tau then best := Some q
      done;
      !best
    | Speedup.Kind_roofline | Speedup.Kind_communication
    | Speedup.Kind_amdahl | Speedup.Kind_general | Speedup.Kind_power ->
      if Task.time task 1 <= tau then Some 1
      else begin
        (* Invariant: t(lo) > tau >= t(hi). *)
        let lo = ref 1 and hi = ref a.Task.p_max in
        while !hi - !lo > 1 do
          let mid = (!lo + !hi) / 2 in
          if Task.time task mid <= tau then hi := mid else lo := mid
        done;
        Some !hi
      end

let feasible ~p ~tau dag =
  let n = Dag.n dag in
  let allocations = Array.make n 0 in
  let area = ref 0. in
  let ok = ref true in
  for i = 0 to n - 1 do
    if !ok then
      match min_alloc_for ~p ~tau (Dag.task dag i) with
      | None -> ok := false
      | Some q ->
        allocations.(i) <- q;
        area := !area +. Task.area (Dag.task dag i) q
  done;
  if !ok && !area <= (float_of_int p *. tau) +. 1e-9 then Some allocations
  else None

let schedule ~p dag =
  if Dag.n_edges dag <> 0 then
    invalid_arg "Turek.schedule: the task set must be independent";
  if Dag.n dag = 0 then invalid_arg "Turek.schedule: empty task set";
  (* Feasibility is monotone in tau: a looser target weakly shrinks every
     minimal allocation (execution time is non-increasing in tau's
     threshold) and hence the total area.  Bisect between the trivial lower
     bound max_j t_min_j and a provably feasible upper bound (sequential
     allocations). *)
  let lo0 = ref 0. and hi0 = ref 0. in
  let seq_area = ref 0. in
  for i = 0 to Dag.n dag - 1 do
    let task = Dag.task dag i in
    let a = Task.analyze ~p task in
    lo0 := Float.max !lo0 a.Task.t_min;
    hi0 := Float.max !hi0 (Task.time task 1);
    seq_area := !seq_area +. Task.area task 1
  done;
  let hi0 = Float.max !hi0 (!seq_area /. float_of_int p) in
  if feasible ~p ~tau:hi0 dag = None then
    invalid_arg "Turek.schedule: no feasible target (should be impossible)";
  let lo = ref !lo0 and hi = ref hi0 in
  if feasible ~p ~tau:!lo dag <> None then hi := !lo
  else
    while !hi -. !lo > 1e-9 *. (1. +. Float.abs !hi) do
      let mid = 0.5 *. (!lo +. !hi) in
      if feasible ~p ~tau:mid dag <> None then hi := mid else lo := mid
    done;
  let tau_time = !hi in
  (* Between the previous candidate and tau_time the allotment is constant;
     the area constraint A <= P tau may admit a smaller fractional tau. *)
  let tau_star =
    let allocations =
      match feasible ~p ~tau:tau_time dag with
      | Some a -> a
      | None -> assert false
    in
    let area = ref 0. and t_max = ref 0. in
    Array.iteri
      (fun i q ->
        area := !area +. Task.area (Dag.task dag i) q;
        t_max := Float.max !t_max (Task.time (Dag.task dag i) q))
      allocations;
    Float.max !t_max (!area /. float_of_int p)
  in
  let allocations =
    match feasible ~p ~tau:tau_time dag with
    | Some a -> a
    | None -> assert false
  in
  let jobs = Rigid.of_dag ~alloc:(fun i -> allocations.(i)) ~p dag in
  let by_list = (Rigid.list_schedule ~p ~jobs dag).Sim_core.schedule in
  let by_shelf = Rigid.shelf_pack ~p ~jobs in
  let sched =
    if Schedule.makespan by_list <= Schedule.makespan by_shelf then by_list
    else by_shelf
  in
  { tau_star; allocations; schedule = sched; makespan = Schedule.makespan sched }
