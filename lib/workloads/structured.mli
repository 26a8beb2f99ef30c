(** Deterministic-structure graphs (speedups still drawn at random): chains
    and the fork-join graphs the paper's conclusion names. *)

open Moldable_util
open Moldable_model
open Moldable_graph

val chain :
  ?spec:Params.spec -> rng:Rng.t -> n:int -> kind:Speedup.kind -> unit ->
  Dag.t
(** A single linear chain of [n] tasks. *)

val fork_join :
  ?spec:Params.spec -> rng:Rng.t -> stages:int -> width:int ->
  kind:Speedup.kind -> unit -> Dag.t
(** [stages] repetitions of fork -> [width] parallel tasks -> join; the join
    of one stage is the fork of the next. *)
