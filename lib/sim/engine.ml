(* Aliases of [Sim_core], kept only because the frozen
   perfbench/sweep_mixed.ml calls [Engine.run ~arena ~lean] and reads
   [res.Engine.schedule]; everything else uses [Sim_core] directly. *)

type policy = Sim_core.policy = {
  name : string;
  on_ready : now:float -> Moldable_model.Task.t -> unit;
  next_launch : now:float -> free:int -> (int * int) option;
}

exception Policy_error = Sim_core.Policy_error

type result = Sim_core.result = {
  schedule : Schedule.t;
  recording : Recording.t;
  makespan : float;
  n_attempts : int;
  n_failures : int;
  metrics : Metrics.t;
}

let run = Sim_core.run
