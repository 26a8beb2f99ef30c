(** Malleable execution of task graphs — the third allocation regime of
    Feitelson and Rudolph's taxonomy quoted in the paper's introduction
    (rigid / moldable / malleable).  A malleable task's allocation may change
    {e while it runs}; the paper argues moldable tasks are the practical
    sweet spot, and this engine lets the benches quantify exactly how much
    makespan moldability gives up against the more powerful regime.

    Execution semantics: a task with execution-time function [t(.)] runs at
    {e rate} [1/t(q)] when allocated [q] processors, and completes when its
    accumulated progress reaches 1 — the standard malleable interpretation
    of a speedup function (for a constant allocation it reproduces the
    moldable duration exactly).  Reallocation happens at events only (task
    reveals and completions), so a run decomposes into {e phases} of
    constant allocation.

    The built-in policy is fair water-filling: at every event, the [P]
    processors are split as evenly as possible among all unfinished
    available tasks, capping each task at its [p_max] and redistributing the
    excess. *)

open Moldable_graph

type phase = {
  t0 : float;
  t1 : float;
  allocs : (int * int) list;  (** (task id, processors), positive entries. *)
}

type result = {
  phases : phase list;   (** Chronological, contiguous, starting at 0. *)
  makespan : float;
  completion : float array;  (** Per-task completion time. *)
}

val equal_share : p:int -> Dag.t -> result
(** Water-filling malleable schedule (online reveal rules identical to
    {!Sim_core.run}). *)
