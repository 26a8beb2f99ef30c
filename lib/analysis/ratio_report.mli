(** Ratio accounting: joins a run's makespan with the Lemma 2 lower bound
    and checks it against the paper's proven competitive ratios (Table 1).

    For every run the report records [A_min / P], [C_min], the lower bound
    [max(A_min/P, C_min)] and the achieved ratio [makespan / lower_bound],
    together with the Table 1 upper bound of the instance's speedup family
    (infinite for families without a guarantee: power-law and arbitrary).
    Entries aggregate per (workload, model) family into worst/mean ratios —
    the empirical counterpart of the paper's Table 1 rows. *)

open Moldable_model
open Moldable_graph

type entry = {
  workload : string;      (** Workload family name (free-form). *)
  model : Speedup.kind;   (** Common speedup family of the graph's tasks;
                              [Kind_arbitrary] for a mixed graph. *)
  n : int;
  p : int;
  makespan : float;
  area_bound : float;     (** [A_min / P] (Definition 1). *)
  cp_bound : float;       (** [C_min] (Definition 2). *)
  lower_bound : float;    (** [max area_bound cp_bound] (Lemma 2). *)
  ratio : float;          (** [makespan / lower_bound]; [1.] on an empty
                              instance (lower bound 0). *)
  proven_bound : float;   (** Table 1 upper bound for [model]. *)
  within_bound : bool;    (** [ratio <= proven_bound] (tolerantly). *)
}

val table1_upper_bound : Speedup.kind -> float
(** The paper's proven competitive ratios (Table 1,
    [Moldable_theory.Model_bounds.paper_upper]): roofline 2.62,
    communication 3.61, Amdahl 4.74, general 5.72; [infinity] for power-law
    and arbitrary speedups (no guarantee). *)

val improved_upper_bound : Speedup.kind -> float
(** The improved algorithm's proven competitive ratios (Perotin & Sun,
    arXiv:2304.14127, as reported in
    [Moldable_theory.Improved_bounds.paper_upper]): roofline 2.62,
    communication 3.39, Amdahl 4.55, general 4.63; [infinity] for
    power-law and arbitrary speedups. *)

val ratio : makespan:float -> lower_bound:float -> float
(** [makespan /. lower_bound], or [1.] when the bound is not positive (an
    empty instance, whose makespan is 0).  The one ratio of a run to its
    Lemma 2 bound, shared by {!of_run}, {!Experiment} and the CLI. *)

val kind_of_dag : Dag.t -> Speedup.kind
(** The common speedup family of the graph's tasks; [Kind_arbitrary] when
    the graph mixes families or is empty. *)

val of_run :
  ?model:Speedup.kind -> ?proven_bound:float -> workload:string -> p:int ->
  makespan:float -> Dag.t -> entry
(** Evaluates {!Moldable_graph.Bounds.compute} on the graph and joins it
    with the run's makespan.  [model] overrides {!kind_of_dag};
    [proven_bound] overrides {!table1_upper_bound}[ model] — pass
    [(improved_upper_bound model)] for a run of the improved allocator so
    [within_bound] checks the guarantee that actually applies. *)

type summary = {
  s_workload : string;
  s_model : Speedup.kind;
  runs : int;
  worst : float;        (** Maximum ratio in the group. *)
  mean : float;
  s_proven_bound : float;
  all_within : bool;
}

val summarize : entry list -> summary list
(** Groups entries by (workload, model), sorted by workload then model. *)

val to_json : entry list -> Moldable_obs.Json.t
(** JSON document [{"runs": [...], "summary": [...]}]; an infinite
    [proven_bound] (no Table 1 bound applies) renders as [null]. *)

type comparison = {
  c_workload : string;
  c_model : Speedup.kind;
  c_runs : int;
  original_worst : float;    (** Worst [T / LB] under Algorithm 1. *)
  original_mean : float;
  improved_worst : float;    (** Worst [T / LB] under the improved policy. *)
  improved_mean : float;
  original_bound : float;    (** {!table1_upper_bound}. *)
  improved_bound : float;    (** {!improved_upper_bound}. *)
  c_all_within : bool;       (** Each worst ratio under its own bound. *)
}

val compare_runs :
  original:entry list -> improved:entry list -> comparison list
(** Joins the per-(workload, model) summaries of two entry lists — the same
    instance set run under Algorithm 1 and under the improved allocator —
    into side-by-side rows.  Groups present on only one side are dropped. *)

val comparison_table : comparison list -> string
(** Rendered text table, one row per (workload, model) group. *)

val comparison_to_json : comparison list -> Moldable_obs.Json.t
(** Stable JSON document [{"comparison": [...]}] — the schema of
    [paper_artifacts/improved_ratio.json] (documented in EXPERIMENTS.md). *)

val table : entry list -> string
(** Human-readable summary table (one row per workload/model group). *)

val pp_entry : Format.formatter -> entry -> unit
