(** Scheduling of {e rigid} parallel jobs — each job has a fixed processor
    requirement — the substrate under the independent-moldable algorithms of
    Section 2's related work (Turek et al.'s 2-approximation reduces
    moldable to rigid; Ye et al.'s online transformation does the same).

    Two classic schedulers are provided:

    - {!list_schedule}: Garey–Graham list scheduling (greedy, work-
      conserving), via the same engine as everything else;
    - {!shelf_pack}: NFDH-style shelf packing (sort by decreasing execution
      time, fill shelves of the tallest job's height), which produces an
      explicit schedule directly. *)

open Moldable_graph
open Moldable_sim

type job = {
  id : int;       (** Must be the task id in the corresponding graph. *)
  procs : int;    (** Fixed requirement, in [\[1, P\]]. *)
  time : float;   (** Execution time at that allocation, [> 0]. *)
}

val of_dag : alloc:(int -> int) -> p:int -> Dag.t -> job list
(** Rigid view of an independent task set under a fixed allotment.
    @raise Invalid_argument if the graph has edges or an allocation is out
    of range. *)

val list_schedule : p:int -> jobs:job list -> Dag.t -> Sim_core.result
(** FIFO list scheduling of the rigid jobs (the graph supplies execution
    times for validation).  Runs {!Moldable_core.Offline.list_with} with
    equal ranks, so the queue is Algorithm 1's, FIFO by task id:
    O(log P + log n) per insert and per launch.  If two jobs share an id,
    the last one wins.
    Guarantees makespan [<= t_max + A / (P - w_max + 1)] where [w_max] is
    the widest requirement (while the widest waiting job cannot start, more
    than [P - w_max] processors are busy).
    @raise Invalid_argument if the graph has edges, a job id lies outside
    [\[0, n)], a task has no job, or a requirement is outside [\[1, P\]]. *)

val shelf_pack : p:int -> jobs:job list -> Schedule.t
(** Next-Fit-Decreasing-Height shelves: jobs sorted by decreasing time; each
    shelf opens with the tallest remaining job and accepts jobs while the
    processor sum fits in [P].  At most [2 A/P + t_max] tall overall. *)
