open Moldable_model
open Moldable_sim

let min_time_list ~p =
  Online_scheduler.policy ~allocator:Allocator.min_time ~p ()

let sequential_list ~p =
  Online_scheduler.policy ~allocator:Allocator.sequential ~p ()

let all_p_list ~p = Online_scheduler.policy ~allocator:Allocator.all_p ~p ()

let ect ~p =
  let queue : Task.t Queue.t = Queue.create () in
  let cache = Task.Cache.create ~p in
  let on_ready ~now:_ task = Queue.add task queue in
  let next_launch ~now:_ ~free =
    if Queue.is_empty queue || free < 1 then None
    else begin
      let task = Queue.pop queue in
      let a = Task.Cache.analyze cache task in
      (* On monotonic tasks t(.) is non-increasing up to p_max, so the
         completion time now is minimized by the largest usable count. *)
      let alloc = min a.Task.p_max free in
      Some (task.Task.id, alloc)
    end
  in
  { Sim_core.name = "ect"; on_ready; next_launch }

let named =
  [
    ("min-time list", fun ~p -> min_time_list ~p);
    ("sequential list", fun ~p -> sequential_list ~p);
    ("all-P serial", fun ~p -> all_p_list ~p);
    ("ECT greedy", fun ~p -> ect ~p);
  ]

let run make ~p dag = Sim_core.run ~p (make ~p) dag
