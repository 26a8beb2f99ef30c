(** Clairvoyant (offline) reference schedulers.

    The optimal offline makespan is NP-hard to compute; these schedulers see
    the whole graph up front and give {e upper} bounds on [T_opt] that are
    usually much tighter than running the online algorithm — useful as
    stronger comparators in experiments (the Lemma 2 bound stays the valid
    {e lower} bound on [T_opt]).

    [critical_path_list] is classic list scheduling with the bottom-level
    (critical-path) priority computed from minimum execution times — the
    offline analogue of HEFT specialized to moldable tasks — combined with
    any allocator.

    Every list scheduler here runs {!Online_scheduler.policy} with a
    clairvoyant rank as its priority: ready tasks wait in Algorithm 1's
    {!Moldable_util.Prefix_min} queue, ordered by decreasing rank with
    ties by task id, and each launch takes the first one that fits the
    free processors — O(log P + log n) per insert and per launch. *)

open Moldable_graph
open Moldable_sim

val critical_path_list :
  ?allocator:Allocator.t -> p:int -> Dag.t -> Sim_core.result
(** List scheduling where ready tasks are ordered by decreasing bottom level
    (sum of [t_min] along the longest downstream path).  The allocator
    defaults to {!Allocator.algorithm2_per_model}.  The schedule is produced
    through the same engine and satisfies the same feasibility contract. *)

val best_of :
  ?p:int -> schedulers:(string * (p:int -> Dag.t -> Sim_core.result)) list ->
  Dag.t -> string * float
(** Runs every scheduler (each validated) and returns the name and makespan
    of the best, a practical clairvoyant upper bound on [T_opt].
    [p] defaults to 64. *)

val named : (string * (p:int -> Dag.t -> Sim_core.result)) list
(** Offline reference schedulers for {!best_of}: critical-path list
    scheduling with the paper's allocator, with min-time allocations and
    with sequential allocations. *)

val list_with :
  allocations:int array -> priority:float array -> p:int -> Dag.t ->
  Sim_core.result
(** Clairvoyant list scheduling with an explicit per-task allotment and an
    explicit priority (higher runs first; ties by id, NaN ranks last) —
    the building block for search-based offline scheduling.
    @raise Invalid_argument on length mismatches or out-of-range
    allocations. *)

val randomized_search :
  ?restarts:int -> rng:Moldable_util.Rng.t -> p:int -> Dag.t -> Sim_core.result
(** Randomized restarts ([restarts], default 64) over allotments (mixtures
    of Algorithm 2, minimal-time and random allocations) and priorities
    (bottom-level with multiplicative jitter); returns the best schedule
    found.  A stronger practical upper bound on [T_opt] than any single
    heuristic — useful to bracket true competitive ratios on small
    instances. *)
