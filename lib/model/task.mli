(** Moldable tasks and their per-platform analysis (Section 3.2).

    A task is a speedup model plus an identity.  Given the platform size [P],
    the paper derives for each task [j]:

    - [p_max] (Equation (5)): the largest allocation worth using —
      [min(P, ptilde, pbar)] where [pbar] is the integer around
      [s = sqrt(w/c)] with the smaller execution time;
    - [t_min = t(p_max)]: the minimum execution time;
    - [a_min = a(1)]: the minimum area (Lemma 1 shows the area is
      non-decreasing on [1 .. p_max], so one processor minimizes it).

    For [Arbitrary] speedups the closed forms do not apply and both extrema
    are found by exhaustive scan over [1 .. P]. *)

type t = {
  id : int;          (** Unique within one task graph. *)
  label : string;    (** Human-readable name for traces and Gantt charts. *)
  speedup : Speedup.t;
}

val make : ?label:string -> id:int -> Speedup.t -> t
(** [make ~id speedup] validates the model.
    @raise Invalid_argument if {!Speedup.validate} fails. *)

val time : t -> int -> float
val area : t -> int -> float

(** {1 Per-platform analysis} *)

type analyzed = private {
  task : t;
  p : int;       (** Platform size [P] used for the analysis. *)
  p_max : int;   (** Equation (5). *)
  t_min : float; (** [time task p_max]. *)
  a_min : float; (** Minimum area over allocations [1 .. p_max]. *)
  monotonic : bool;
      (** On [1 .. p_max] the time is non-increasing and the area is
          non-decreasing (the monotonic property of Lemma 1), up to
          {!Moldable_util.Fcmp}'s tolerance: [true] for every closed-form
          model by Lemma 1, scanned for [Arbitrary] ones. *)
}

val analyze : p:int -> t -> analyzed
(** Requires [p >= 1].  For [Arbitrary] speedups the time function is
    evaluated exactly once per allocation in [1 .. p] (a single fused pass
    computes [p_max], [t_min], [a_min] and monotonicity together). *)

val p_max : p:int -> t -> int
(** [p_max ~p t = (analyze ~p t).p_max], without building the analysis
    when the model has a closed form (every model but [Arbitrary]).
    Requires [p >= 1]. *)

val alpha : analyzed -> int -> float
(** [alpha a q = area q /. a_min] — the area ratio of Algorithm 2. *)

val beta : analyzed -> int -> float
(** [beta a q = time q /. t_min] — the execution-time ratio of Algorithm 2. *)

(** {1 Allocation decisions} *)

type decision = {
  analysis : analyzed;   (** The analysis the rule decided on. *)
  p_star : int;          (** Step-1 initial allocation. *)
  beta_budget : float;   (** [delta(mu)] (or the improved rule's [rho]), the
                             bound on [beta] Step 1 enforces; [nan] for rules
                             with no feasibility budget. *)
  step1_bound : float;   (** The absolute feasibility threshold
                             [beta_budget * t_min] Step 1 compares execution
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
(** Provenance of one allocation decision of Algorithm 2: everything needed
    to reconstruct why the rule picked [final_alloc].  The [alpha]/[beta]
    ratios at [p_star] and at [final_alloc] follow from [analysis] through
    {!alpha} and {!beta}.  Made by [Moldable_core.Allocator.explain] and
    kept per task by [Moldable_sim.Tracer] when a run is traced. *)
