open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_core

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

let ineq label lhs rhs =
  { label; lhs; rhs; holds = Moldable_util.Fcmp.leq ~eps:1e-6 lhs rhs }

let verify ~mu ~dag sched =
  let p = Schedule.p sched in
  let bounds = Bounds.compute ~p dag in
  let alpha_max = ref 1. and beta_max = ref 1. in
  let algorithm2 = Allocator.algorithm2 ~mu in
  Array.iter
    (fun (a : Task.analyzed) ->
      let q = (Allocator.explain algorithm2 a).p_star in
      alpha_max := Float.max !alpha_max (Task.alpha a q);
      beta_max := Float.max !beta_max (Task.beta a q))
    bounds.Bounds.analyzed;
  let intervals = Intervals.classify ~mu sched in
  let fp = float_of_int p in
  let lemma3 =
    ineq "mu T2 + (1-mu) T3 <= alpha A_min/P"
      ((mu *. intervals.Intervals.t2)
      +. ((1. -. mu) *. intervals.Intervals.t3))
      (!alpha_max *. bounds.Bounds.a_min_total /. fp)
  in
  let lemma4 =
    ineq "T1/beta + mu T2 <= C_min"
      ((intervals.Intervals.t1 /. !beta_max) +. (mu *. intervals.Intervals.t2))
      bounds.Bounds.c_min
  in
  let lemma5 =
    let ratio = ((mu *. !alpha_max) +. 1. -. (2. *. mu)) /. (mu *. (1. -. mu)) in
    ineq "T <= ratio * LB" intervals.Intervals.makespan
      (ratio *. bounds.Bounds.lower_bound)
  in
  {
    mu;
    alpha_max = !alpha_max;
    beta_max = !beta_max;
    intervals;
    lemma3;
    lemma4;
    lemma5;
    all_hold = lemma3.holds && lemma4.holds && lemma5.holds;
  }

let pp_ineq ppf i =
  Format.fprintf ppf "%s: %.6g <= %.6g %s" i.label i.lhs i.rhs
    (if i.holds then "OK" else "VIOLATED")

let pp ppf r =
  Format.fprintf ppf "@[<v>alpha_max=%.4f beta_max=%.4f@ %a@ %a@ %a@ %a@]"
    r.alpha_max r.beta_max Intervals.pp r.intervals pp_ineq r.lemma3 pp_ineq
    r.lemma4 pp_ineq r.lemma5
