open Moldable_model
open Moldable_graph
open Moldable_sim

(* Clairvoyant list scheduling on Algorithm 1's ready queue: the allotment
   is given per task id, higher ranks launch first, ties by task id.
   Float.compare keeps the order total on NaN ranks, and a task sits in the
   queue at most once, so distinct tasks never tie. *)
let run_ranked ~name ~allocations ~rank ~p dag =
  Sim_core.run ~p (Online_scheduler.ranked ~name ~allocations ~rank ~p) dag

(* The allocator's choice for every task, from the analyses [Bounds]
   already made for the rank. *)
let allocations_of allocator (bounds : Bounds.t) =
  Array.map
    (fun a -> (allocator.Allocator.explain a).Allocator.final_alloc)
    bounds.Bounds.analyzed

(* The bottom-level rank needs the whole graph (clairvoyant), but the
   engine still only launches ready tasks, so the result is feasible. *)
let critical_path_list ?(allocator = Allocator.algorithm2_per_model) ~p dag =
  let bounds = Bounds.compute ~p dag in
  let weight i = bounds.Bounds.analyzed.(i).Task.t_min in
  run_ranked
    ~name:("offline-critical-path[" ^ allocator.Allocator.name ^ "]")
    ~allocations:(allocations_of allocator bounds)
    ~rank:(Paths.bottom_level ~weight dag) ~p dag

let named =
  [
    ( "cp-list (algorithm 2)",
      fun ~p dag -> critical_path_list ~p dag );
    ( "cp-list (min-time)",
      fun ~p dag -> critical_path_list ~allocator:Allocator.min_time ~p dag );
    ( "cp-list (sequential)",
      fun ~p dag -> critical_path_list ~allocator:Allocator.sequential ~p dag );
  ]

let list_with ~allocations ~priority ~p dag =
  let n = Dag.n dag in
  if Array.length allocations <> n || Array.length priority <> n then
    invalid_arg "Offline.list_with: array lengths must match the task count";
  Array.iter
    (fun q ->
      if q < 1 || q > p then
        invalid_arg "Offline.list_with: allocation out of [1, P]")
    allocations;
  run_ranked ~name:"offline-list-with" ~allocations ~rank:priority ~p dag

let randomized_search ?(restarts = 64) ~rng ~p dag =
  let open Moldable_util in
  let n = Dag.n dag in
  let bounds = Bounds.compute ~p dag in
  let weight i = bounds.Bounds.analyzed.(i).Task.t_min in
  let bl = Paths.bottom_level ~weight dag in
  let alg2 = allocations_of Allocator.algorithm2_per_model bounds in
  let p_max i = bounds.Bounds.analyzed.(i).Task.p_max in
  let candidate k =
    let allocations =
      Array.init n (fun i ->
          if k = 0 then alg2.(i)
          else if k = 1 then p_max i
          else
            match Rng.int rng 3 with
            | 0 -> alg2.(i)
            | 1 -> p_max i
            | _ -> Rng.int_range rng 1 (p_max i))
    in
    let priority =
      Array.init n (fun i ->
          if k = 0 || k = 1 then bl.(i)
          else bl.(i) *. Rng.float_range rng 0.5 2.0)
    in
    list_with ~allocations ~priority ~p dag
  in
  let best = ref (candidate 0) in
  for k = 1 to restarts - 1 do
    let result = candidate k in
    if
      Schedule.makespan result.Sim_core.schedule
      < Schedule.makespan !best.Sim_core.schedule
    then best := result
  done;
  !best

let best_of ?(p = 64) ~schedulers dag =
  let results =
    List.map
      (fun (name, run) ->
        let r = run ~p dag in
        Validate.check_exn ~dag r.Sim_core.schedule;
        (name, Schedule.makespan r.Sim_core.schedule))
      schedulers
  in
  match results with
  | [] -> invalid_arg "Offline.best_of: no schedulers given"
  | first :: rest ->
    List.fold_left
      (fun (bn, bm) (n, m) -> if m < bm then (n, m) else (bn, bm))
      first rest
