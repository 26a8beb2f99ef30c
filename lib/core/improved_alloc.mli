(** The improved online allocator of Perotin & Sun, "Improved Online
    Scheduling of Moldable Task Graphs under Common Speedup Models"
    (arXiv:2304.14127) — the follow-up to the ICPP 2022 Algorithm 2 this
    repository reproduces.

    The refinement keeps the two-phase shape of Algorithm 2 but decouples
    its two knobs.  {e Phase 1}: among allocations [q] in [\[1, p_max\]],
    minimize area subject to [t(q) <= rho * t_min], where the budget [rho]
    is a free per-model parameter rather than the [delta(mu)] the original
    analysis forces.  {e Phase 2}: cap the allocation at [ceil(mu P)],
    where the refined lower-bound pairing (charging capped low-utilization
    intervals against the area bound {e and} the critical-path bound
    jointly) admits cap fractions beyond the original
    [(3 - sqrt 5)/2 ~= 0.382] ceiling, up to [1/2].

    Optimizing [(mu, rho)] per speedup model under the refined analysis
    improves every competitive ratio of Table 1 except roofline's (already
    tight): see {!Moldable_theory.Improved_bounds} for the proven
    constants.  The allocators here are ordinary {!Allocator.t} values, so
    every harness (engines, tracer provenance, experiments, ratio reports,
    CLI) runs them transparently, and the exact-rational test oracle
    shadows their float decisions exactly. *)

open Moldable_model

type params = { mu : float; rho : float }
(** Cap fraction [mu] in [(0, 1/2]] and execution-time budget [rho >= 1]. *)

val params : Speedup.kind -> params
(** The optimized per-model parameters (power/arbitrary reuse general's,
    mirroring {!Mu.default}; no guarantee exists for those models). *)

val allocator : mu:float -> rho:float -> Allocator.t
(** The improved allocator at fixed parameters.
    @raise Invalid_argument if [mu] or [rho] is out of range. *)

val per_model : Allocator.t
(** The improved allocator using {!params} of each task's model family —
    the analogue of {!Allocator.algorithm2_per_model}. *)
