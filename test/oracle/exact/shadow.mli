(** Shadow replayer: re-validates every comparison decision of a float
    {!Moldable_sim.Sim_core} run in exact rational arithmetic.

    The replayer walks the event trace, attempts and schedule of a finished
    run and re-derives, exactly, each quantity the float engine compared:
    per-attempt completion stamps ([start + t(q)]), the batch instants of
    {!Moldable_sim.Event_queue.pop_batch}, trace chronology,
    precedence feasibility, per-processor occupancy, Algorithm 2's
    allocation decisions (when [mu] is supplied), and the Lemma 2 lower
    bound with its ratio denominator.  Divergences carry full provenance
    and a classification:

    - {e explained}: the disagreement sits inside the documented float
      tolerance — a boundary case where the float path's own epsilon can
      legitimately flip the verdict (for allocations, the float answer lies
      in the envelope of exact answers at [eps (1 ± band)]), or a
      [Float_image] model whose execution time is itself a float.
    - {e unexplained}: a genuine float-arithmetic bug; the differential
      harness fails on any of these. *)

open Moldable_graph
open Moldable_sim

type site =
  | Completion_time of { task_id : int; attempt : int }
      (** A schedule/attempt finish stamp vs the exact [start + t(q)]. *)
  | Batch_merge of { task_id : int; attempt : int }
      (** An attempt's batch instant strayed beyond the batching tolerance
          from its exact completion. *)
  | Trace_order of { index : int }
      (** Trace timestamps not chronological. *)
  | Precedence of { pred : int; succ : int }
      (** A successor started before a predecessor's exact completion. *)
  | Proc_set of { task_id : int; attempt : int }
      (** Ill-formed processor set (out of range or duplicated). *)
  | Overlap of { proc : int; first : int; second : int }
      (** Two attempts exactly overlapping on one processor. *)
  | Allocation of { task_id : int }
      (** Float Algorithm 2 allocation vs the exact decision. *)
  | Makespan
  | Lower_bound
  | Ratio

type divergence = {
  site : site;
  float_value : float;
  exact_value : string;   (** Exact quantity, as an exact decimal/rational. *)
  error : float;          (** Relative margin beyond the allowed tolerance. *)
  explained : bool;
  detail : string;
}

type report = {
  checks : int;           (** Individual exact comparisons performed. *)
  divergences : divergence list;
  n_explained : int;
  n_unexplained : int;
}

val ok : report -> bool
(** No unexplained divergence. *)

val check :
  ?mu:float ->
  ?improved:(Moldable_model.Task.t -> float * float) ->
  ?eps:float ->
  ?tol:float ->
  ?band:float ->
  dag:Dag.t ->
  p:int ->
  Sim_core.result ->
  report
(** [check ~dag ~p result] replays [result] exactly.

    [mu] (optional) additionally verifies every task's allocation against
    the exact Algorithm 2 at that [mu] — pass the same value the float
    allocator ran with.  [improved] (optional, mutually exclusive with
    [mu]) instead verifies allocations against the exact improved
    allocator ({!Exact_alg2.decide_improved}); the callback returns the
    [(mu, rho)] the float side used for that task — pass
    [fun task -> let p = Moldable_core.Improved_alloc.params
    (Moldable_model.Speedup.kind task.speedup) in (p.mu, p.rho)] to mirror
    [Improved_alloc.per_model].  [eps] (default {!Moldable_util.Fcmp.default_eps})
    is the comparison tolerance whose exact image the tolerant spec is
    evaluated at.  [tol] (default [1e-12]) is the allowance for accumulated
    float rounding in stamp arithmetic.  [band] (default [1e-13]) is the
    rounding band used to classify boundary divergences as explained; it is
    orders of magnitude below [eps], so it never masks a real bug. *)

val site_to_string : site -> string
val pp_divergence : Format.formatter -> divergence -> unit
val pp : Format.formatter -> report -> unit

val divergence_to_json : divergence -> Moldable_obs.Json.t
val report_to_json : report -> Moldable_obs.Json.t
(** Stable JSON for bench artifacts and CI uploads (schema documented in
    EXPERIMENTS.md).  An infinite [rel_excess] (a processor-set or ratio
    positivity divergence) renders as [null]. *)
