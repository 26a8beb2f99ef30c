(** Batch experiment harness: run a set of scheduling policies over a set of
    task graphs, validate every produced schedule, and report the
    distribution of the normalized makespan [T / LB] where [LB] is the
    Lemma 2 lower bound on the optimal makespan ([1.] on an empty graph).  Because [LB <= T_opt],
    the reported ratios over-estimate the true [T / T_opt]; the proven
    competitive ratios bound them too. *)

open Moldable_graph
open Moldable_sim
open Moldable_util

type policy_spec = { label : string; make : p:int -> Sim_core.policy }

type outcome = {
  workload : string;
  policy : string;
  p : int;
  ratios : float list;       (** One per instance, {!Ratio_report.ratio}. *)
  makespans : float list;
  summary : Stats.summary;   (** Of [ratios]. *)
}

val algorithm1 : policy_spec
(** The paper's algorithm with per-model [mu] and FIFO queue. *)

val algorithm1_fixed_mu : float -> policy_spec

val improved : policy_spec
(** The improved online algorithm (Perotin & Sun, arXiv:2304.14127) with
    per-model [(mu, rho)] ({!Moldable_core.Improved_alloc.per_model}).
    Not part of {!default_policies}: pass it explicitly to compare the two
    algorithms side by side. *)

val default_policies : policy_spec list
(** Algorithm 1 plus the {!Moldable_core.Baselines}. *)

val evaluate :
  ?validate:bool -> ?pool:Pool.t -> ?registry:Moldable_obs.Registry.t ->
  p:int -> workload:string ->
  policies:policy_spec list -> Dag.t list -> outcome list
(** Runs every policy over every graph.  The Lemma 2 bound
    ({!Moldable_graph.Bounds.compute}) depends only on the graph and [p],
    so it is computed once per graph and shared by that graph's cells.
    With [validate] (default true) every schedule is checked by
    {!Moldable_sim.Validate} and a failure raises.  [pool] (default
    {!Moldable_util.Pool.sequential}) fans the bounds (one per graph) and
    then the (policy, instance) cells out over its domains; every cell is a
    pure function of its inputs, so the outcomes are bit-for-bit identical
    at any job count and to {!run_one} on each cell.

    [registry] (default {!Moldable_obs.Registry.null}) counts evaluated
    cells ([moldable_sweep_cells]) and records a per-cell wall-clock
    latency histogram ([moldable_sweep_cell_seconds]: the simulation, the
    validation and the ratio, not the bound); the telemetry wraps each
    cell from the outside, so outcomes are unchanged. *)

val run_one : ?validate:bool -> p:int -> policy_spec -> Dag.t -> float * float
(** [(makespan, ratio)] for one instance: the cell {!evaluate} runs, after
    computing the instance's own bound.  The ratio is
    {!Ratio_report.ratio}, so an empty graph reads [1.]. *)

val equal_outcome : outcome -> outcome -> bool
(** Exact (bit-for-bit, [Float.equal]) equality of two outcomes — the
    determinism check used by the parallel-sweep self-tests. *)
