(* The exhaustive reference for the closed-form [p_max] of [Task.analyze]:
   the argmin of [t(.)] over [1 .. p], smallest allocation on a tie. *)

open Moldable_model

let p_max_scan ~p t =
  Moldable_util.Numerics.integer_argmin ~f:(fun q -> Task.time t q) ~lo:1 ~hi:p
