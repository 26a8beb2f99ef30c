(* Aliases of [Sim_core], kept only because the frozen
   perfbench/sweep_mixed.ml calls [Engine.run ~arena ~lean] and reads
   [res.Engine.schedule]; everything else uses [Sim_core] directly. *)

type result = Sim_core.result = { schedule : Schedule.t; metrics : Metrics.t }

let run = Sim_core.run
