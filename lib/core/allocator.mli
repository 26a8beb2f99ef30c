(** Processor-allocation strategies.

    The paper's Algorithm 2 works in two steps.  {e Step 1} (initial
    allocation, inspired by the Local Processor Allocation of Benoit et al.):
    among allocations [q] in [\[1, p_max\]], minimize the area ratio
    [alpha_q = a(q)/a_min] subject to the execution-time constraint
    [beta_q = t(q)/t_min <= delta(mu)].  Because [alpha] is non-decreasing
    and [beta] non-increasing on that range (Lemma 1), the optimum is the
    {e smallest} feasible [q], found here by binary search; for [Arbitrary]
    speedups, where monotonicity is not guaranteed, an exhaustive scan is
    used.  {e Step 2} (adjustment): cap the allocation at [ceil(mu P)]
    (Equation (7)), which keeps enough processors free that some task can
    always start when utilization is low — the key to the interval analysis
    of Lemmas 3–5.

    An allocator here is a {e static} rule [task -> allocation] for a given
    platform size; dynamic rules (allocations depending on the current free
    count, such as ECT) live in {!Baselines}. *)

open Moldable_model

type rule
(** How a rule decides: a two-step rule's per-family budget and cap, or a
    trivial rule's allocation function. *)

type t = { name : string; rule : rule }
(** A named rule.  {!explain}, {!allocate} and {!decide} all evaluate
    [rule]. *)

val explain : t -> Task.analyzed -> Task.decision
(** The rule: one decision per analyzed task, with full provenance.  The
    online scheduler calls it once per revealed task when a tracer or a
    registry is attached. *)

val allocate : t -> p:int -> Task.t -> int
(** Final allocation, in [\[1, P\]]: analyzes the task and keeps
    [final_alloc] of its {!explain} decision. *)

val make : name:string -> (p:int -> p_max:int -> Task.t -> int) -> t
(** A trivial rule from its final allocation, given the platform size and
    the task's [p_max]: no budget, no cap, no scan count in the
    provenance. *)

val two_step :
  name:string -> (Speedup.kind -> float * float option) -> t
(** [two_step ~name step] is the two-step rule of Algorithm 2 with the
    knobs of each speedup family [k] given by [step k = (budget, cap)]:
    Step 1 ({!step1_counted}) searches within [budget * t_min], and Step 2
    caps the result at [ceil(mu P)] when [cap = Some mu] (no cap for
    [None]).  {!algorithm2} has [budget = delta(mu)]; the improved
    allocator of {!Improved_alloc} has a decoupled budget [rho].  [step]
    is evaluated once per family, at construction. *)

type kernel
(** A rule specialised to one platform size, its Step-2 caps computed
    once. *)

val kernel : t -> p:int -> kernel
(** Requires [p >= 1]. *)

val decide : kernel -> Task.t -> float array -> int
(** [decide (kernel t ~p) task t_min] is
    [(explain t (Task.analyze ~p task)).final_alloc], and stores the
    analysis' [t_min] in [t_min.(0)].  It evaluates the same p_max, Step-1
    search and cap as {!explain}, but on every model except [Arbitrary] it
    builds no analysis, no decision and no boxed float.  The online
    scheduler's reveal runs it when nothing records the provenance. *)

val step1_counted : Task.analyzed -> bound:float -> int * int
(** The Step-1 search against an explicit absolute execution-time bound —
    smallest feasible allocation for monotonic models (binary search),
    minimum-area feasible allocation for non-monotonic [Arbitrary] models
    (exhaustive scan) — and the number of feasibility candidates probed
    (binary-search probes, or [p_max] for the scan), the provenance
    recorded in {!Task.decision}. *)

val algorithm2 : mu:float -> t
(** The paper's allocator with a fixed [mu]. *)

val algorithm2_per_model : t
(** The paper's allocator using {!Mu.default} of each task's model family —
    what the theorems assume when a graph mixes a single known family. *)

(** {1 Ablations and trivial rules} *)

val no_cap : mu:float -> t
(** Step 1 without the Step 2 cap — ablates the Lepère–Trystram–Woeginger
    adjustment. *)

val min_time : t
(** Always [p_max]: greedy minimal execution time, maximal area. *)

val sequential : t
(** Always one processor: minimal area, maximal execution time. *)

val all_p : t
(** Always all [P] processors (forces purely sequential task execution). *)
