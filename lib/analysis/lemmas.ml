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
  Array.iter
    (fun (a : Task.analyzed) ->
      let q = Allocator.initial ~mu ~p a.Task.task in
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

let no_wait_below_high_utilization ~mu (result : Sim_core.result) =
  let sched = result.Sim_core.schedule in
  let tasks = result.Sim_core.metrics.Metrics.tasks in
  let n = Schedule.n sched in
  (* A lean run records no per-task ready times; without them the check
     would pass vacuously. *)
  if Array.length tasks <> n then
    invalid_arg
      "Lemmas.no_wait_below_high_utilization: lean result (no ready times)";
  let p = Schedule.p sched in
  (* Guarded ceil, matching Intervals.classify's utilization bands. *)
  let hi = Moldable_util.Numerics.iceil_guarded ((1. -. mu) *. float_of_int p) in
  (* Waiting windows: first reveal -> start per task. *)
  let ready i = tasks.(i).Metrics.ready in
  let windows = ref [] in
  for i = 0 to n - 1 do
    let start = (Schedule.placement sched i).Schedule.start in
    if start -. ready i > 1e-9 then windows := (ready i, start) :: !windows
  done;
  let low_steps =
    List.filter
      (fun (_, _, busy) -> busy < hi)
      (Schedule.utilization_steps sched)
  in
  List.for_all
    (fun (w0, w1) ->
      List.for_all
        (fun (s0, s1, _) ->
          (* Open-interval overlap beyond tolerance is a violation. *)
          Float.min w1 s1 -. Float.max w0 s0 <= 1e-9)
        low_steps)
    !windows

let pp_ineq ppf i =
  Format.fprintf ppf "%s: %.6g <= %.6g %s" i.label i.lhs i.rhs
    (if i.holds then "OK" else "VIOLATED")

let pp ppf r =
  Format.fprintf ppf "@[<v>alpha_max=%.4f beta_max=%.4f@ %a@ %a@ %a@ %a@]"
    r.alpha_max r.beta_max Intervals.pp r.intervals pp_ineq r.lemma3 pp_ineq
    r.lemma4 pp_ineq r.lemma5
