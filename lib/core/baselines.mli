(** Baseline online schedulers to compare Algorithm 1 against.

    Static-allocation baselines reuse {!Online_scheduler.policy} with the
    trivial allocators of {!Allocator}; [ect] is a dynamic rule in the style
    of Wang and Cheng's earliest-completion-time heuristic (a
    [(3 - 2/P)]-approximation offline for the roofline model): when
    processors free up, the head-of-queue task is started on
    [min (p_max, free)] processors, the allocation that minimizes its own
    completion time right now. *)

open Moldable_sim

val min_time_list : p:int -> Sim_core.policy
(** List scheduling with [p_max] allocations. *)

val sequential_list : p:int -> Sim_core.policy
(** List scheduling with single-processor allocations. *)

val all_p_list : p:int -> Sim_core.policy
(** Every task on all [P] processors, i.e. strictly serial execution. *)

val ect : p:int -> Sim_core.policy
(** Greedy earliest-completion-time (dynamic allocations). *)

val named : (string * (p:int -> Sim_core.policy)) list
(** All baselines with their display names, for sweep experiments. *)
