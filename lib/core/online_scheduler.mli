(** Algorithm 1 of the paper: online list scheduling of moldable tasks.

    A waiting queue holds available tasks.  Whenever a task is revealed, its
    processor allocation is fixed by the {!Allocator} (Algorithm 2) and the
    task is queued.  At time 0 and upon every completion, the queue is
    scanned in priority order and every task whose allocation fits in the
    currently free processors is started immediately.

    The policy produced here is driven by {!Moldable_sim.Sim_core.run}; it
    never inspects the task graph, only the tasks revealed to it. *)

open Moldable_graph
open Moldable_sim

val policy :
  ?priority:Priority.t -> ?tracer:Tracer.t ->
  ?registry:Moldable_obs.Registry.t -> allocator:Allocator.t ->
  p:int -> unit -> Sim_core.policy
(** Fresh, stateful policy for one run.  Default priority is {!Priority.fifo}
    (the paper's algorithm).

    [tracer] (default {!Tracer.null}) keeps one decision-provenance record
    per task when it is revealed — the {!Moldable_model.Task.decision}
    that {!Allocator.explain} returned on the task's analysis — and
    charges the policy's hot-path phases ([analyze], [allocator],
    [ready-queue]) to the tracer's self-profile clock.  Tracing never
    changes the schedule.

    [registry] (default {!Moldable_obs.Registry.null}) feeds the
    [moldable_alloc_step1_probes] histogram — the candidate allotments
    scanned by the allocator's Step-1 search, one sample per allocation
    decision (both the original and the improved allocator go through the
    one Step-1 engine, {!Allocator.step1_counted}).  Attaching a registry
    never changes the schedule.

    The waiting queue is a {!Moldable_util.Ranked_queue}: per-allocation
    heaps of flat [(key, tie, id)] arrays under a segment tree caching,
    per node, the allocation whose bucket holds the subtree's first
    entry.  Each revealed task waits as its allocation, the rule's
    {!Priority.rank_key}, its arrival number and its id, compared inline
    with no closure and no item record, so "first task in priority order
    that fits in [free]" is a prefix query over allocations [[1, free]]:
    O(log P + log n) per insert and launch, O(1) when the queue's first
    task fits, O(log P) for the "nothing fits" probe.  Every rule ties on
    the arrival number, so the order is total and the launch sequence
    matches the sorted-list formulation exactly.  Each reveal makes one
    allocation decision.  With a tracer or a registry attached, it is
    {!Allocator.explain}'s record on the task's analysis, which gives the
    allocation, the tracer's provenance and the probe sample; otherwise
    {!Allocator.decide} evaluates the same rule without building the
    analysis, the record or a {!Priority.item}. *)

val ranked :
  name:string -> allocations:int array -> rank:float array -> p:int ->
  Sim_core.policy
(** Clairvoyant list scheduling on the same ready queue, for allotments
    fixed in advance: a revealed task [i] waits with allocation
    [allocations.(i)], key [rank.(i)] and tie [i] (higher rank first, ties
    by id, NaN ranks last), with no analysis and no allocator call.  Both
    arrays are indexed by task id; every allocation must lie in [[1, p]]
    ([Invalid_argument] from the reveal otherwise). *)

val run :
  ?priority:Priority.t -> ?allocator:Allocator.t ->
  ?release_times:float array -> ?seed:int -> ?max_attempts:int ->
  ?failures:Sim_core.failure_model -> ?tracer:Tracer.t ->
  ?registry:Moldable_obs.Registry.t -> ?arena:Sim_core.Arena.t ->
  ?lean:bool -> p:int -> Dag.t -> Sim_core.result
(** One-shot: build the policy (allocator defaults to
    {!Allocator.algorithm2_per_model}; pass {!Improved_alloc.per_model} for
    the refined algorithm of arXiv:2304.14127) and simulate it with
    {!Sim_core.run}.  The same [tracer] and [registry] feed the policy
    (allocation provenance, Step-1 probes) and the core (instants, run
    counters); every other option is {!Sim_core.run}'s. *)

val makespan :
  ?priority:Priority.t -> ?allocator:Allocator.t -> p:int -> Dag.t -> float
