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

type decision = {
  p_star : int;          (** Step-1 initial allocation. *)
  beta_budget : float;   (** [delta(mu)], the bound on [beta] Step 1 enforces;
                             [nan] for rules with no feasibility budget. *)
  step1_bound : float;   (** The absolute feasibility threshold
                             [delta(mu) * t_min] Step 1 compares execution
                             times against — the exact decision input the
                             shadow oracle re-derives; [nan] for rules with
                             no feasibility budget. *)
  cap : int;             (** Step-2 ceiling [ceil(mu P)]; [P] when the rule
                             has no cap. *)
  cap_applied : bool;    (** Whether the cap reduced [p_star]. *)
  final_alloc : int;     (** The allocation the rule returns. *)
  candidates_scanned : int;
      (** Feasibility candidates Step 1 probed (binary-search probes for
          monotonic models, [p_max] for the exhaustive scan, 0 for trivial
          rules). *)
}
(** Provenance of one allocation decision — everything needed to reconstruct
    why the rule picked [final_alloc] (recorded per task by
    {!Moldable_sim.Tracer} when a run is traced). *)

type t = {
  name : string;
  allocate : p:int -> Task.t -> int;
      (** Final allocation, in [\[1, P\]]: analyzes the task and keeps
          [final_alloc] of its {!explain} decision. *)
  explain : Task.analyzed -> decision;
      (** The rule: one decision per analyzed task, with full provenance.
          The online scheduler calls it once per revealed task. *)
}

val make : name:string -> (Task.analyzed -> int) -> t
(** A trivial rule from its final allocation: no budget, no cap, no scan
    count in the provenance. *)

val two_step :
  name:string -> (Speedup.kind -> float * float option) -> t
(** [two_step ~name step] is the two-step rule of Algorithm 2 with the
    knobs of each speedup family [k] given by [step k = (budget, cap)]:
    Step 1 ({!step1_counted}) searches within [budget * t_min], and Step 2
    caps the result at [ceil(mu P)] when [cap = Some mu] (no cap for
    [None]).  {!algorithm2} has [budget = delta(mu)]; the improved
    allocator of {!Improved_alloc} has a decoupled budget [rho].  [step]
    is evaluated once per family, at construction. *)

val initial : mu:float -> p:int -> Task.t -> int
(** Step 1 of Algorithm 2 only. *)

val step1_counted : Task.analyzed -> bound:float -> int * int
(** The Step-1 search against an explicit absolute execution-time bound —
    smallest feasible allocation for monotonic models (binary search),
    minimum-area feasible allocation for non-monotonic [Arbitrary] models
    (exhaustive scan) — and the number of feasibility candidates probed
    (binary-search probes, or [p_max] for the scan), the provenance
    recorded in {!decision}. *)

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
