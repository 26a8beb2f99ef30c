(** Empirical verification of the analysis framework on concrete runs.

    For a schedule produced by Algorithm 1 (Algorithm 2 allocation at a
    fixed [mu], any priority), the proofs guarantee:

    - Lemma 3: [mu T2 + (1-mu) T3 <= alpha_max * A_min / P];
    - Lemma 4: [T1 / beta_max + mu T2 <= C_min]  (with
      [beta_max <= delta(mu)]);
    - Lemma 5: [T <= (mu alpha_max + 1 - 2 mu) / (mu (1-mu)) * LB];

    where [alpha_max] and [beta_max] are the worst area and execution-time
    ratios of the {e initial} (Step 1) allocations across tasks.  [verify]
    recomputes the initial allocations deterministically and evaluates the
    three inequalities on the measured schedule. *)

open Moldable_graph
open Moldable_sim

type inequality = { label : string; lhs : float; rhs : float; holds : bool }

type report = {
  mu : float;
  alpha_max : float;
  beta_max : float;
  intervals : Intervals.summary;
  lemma3 : inequality;
  lemma4 : inequality;
  lemma5 : inequality;
  all_hold : bool;
}

val verify : mu:float -> dag:Dag.t -> Schedule.t -> report
(** Meaningful for schedules produced by the paper's algorithm at the same
    [mu]; the inequalities may fail for other schedulers (that is the
    point of the ablation benches). *)

val no_wait_below_high_utilization : mu:float -> Sim_core.result -> bool
(** The structural fact behind Lemma 4: whenever the utilization is below
    [ceil((1-mu) P)], at least [ceil(mu P)] processors are free, so every
    available task (allocated at most [ceil(mu P)] by Algorithm 2) starts
    immediately — the waiting queue is empty throughout [T1] and [T2].
    Checked on the actual run: no task's waiting window (from its first
    reveal, [metrics.tasks.(i).ready], to its start) may overlap an
    interval of low utilization.
    @raise Invalid_argument on a lean result, which records no ready
    times. *)

val pp : Format.formatter -> report -> unit
