open Moldable_model

type decision = {
  p_star : int;
  beta_budget : float;
  step1_bound : float;
  cap : int;
  cap_applied : bool;
  final_alloc : int;
  candidates_scanned : int;
}

type t = {
  name : string;
  allocate : p:int -> Task.t -> int;
  explain : Task.analyzed -> decision;
}

(* [explain] is the rule; [allocate ~p] analyzes the task and keeps the
   final allocation of the same decision. *)
let of_explain ~name explain =
  {
    name;
    allocate = (fun ~p task -> (explain (Task.analyze ~p task)).final_alloc);
    explain;
  }

(* Trivial rules have no Step-1 search and no cap: the provenance is just
   the final allocation. *)
let make ~name rule =
  of_explain ~name (fun (a : Task.analyzed) ->
      let q = rule a in
      {
        p_star = q;
        beta_budget = Float.nan;
        step1_bound = Float.nan;
        cap = a.Task.p;
        cap_applied = false;
        final_alloc = q;
        candidates_scanned = 0;
      })

(* Smallest q in [1, p_max] with t(q) <= bound, assuming t non-increasing
   there (Lemma 1).  Invariant of the bisection:
   not (feasible lo) && feasible hi. *)
let rec bisect task bound lo hi =
  if hi - lo <= 1 then hi
  else begin
    let mid = (lo + hi) / 2 in
    if Moldable_util.Fcmp.leq (Task.time task mid) bound then
      bisect task bound lo mid
    else bisect task bound mid hi
  end

let smallest_feasible (a : Task.analyzed) bound =
  let task = a.Task.task in
  if Moldable_util.Fcmp.leq (Task.time task 1) bound then 1
  else bisect task bound 1 a.Task.p_max

(* Exhaustive Step 1 for arbitrary speedups: minimize area among feasible
   allocations, ties to the smallest allocation. *)
let scan_feasible_linear (a : Task.analyzed) bound =
  let best = ref None in
  for q = 1 to a.Task.p_max do
    if Moldable_util.Fcmp.leq (Task.time a.Task.task q) bound then begin
      let area = Task.area a.Task.task q in
      match !best with
      | Some (_, best_area) when best_area <= area -> ()
      | _ -> best := Some (q, area)
    end
  done;
  match !best with
  | Some (q, _) -> q
  | None -> a.Task.p_max
  (* beta(p_max) = 1 <= delta, so the None case is unreachable *)

(* Arbitrary speedups whose sampled time/area happen to satisfy Lemma 1's
   monotonic property get the same O(log p_max) binary search as the closed
   forms (smallest feasible = smallest area among feasible); the linear
   scan remains the fallback for genuinely non-monotonic models. *)
let exhaustive (a : Task.analyzed) =
  match Speedup.kind a.Task.task.Task.speedup with
  | Speedup.Kind_arbitrary -> not (Task.monotonic a)
  | Speedup.Kind_roofline | Speedup.Kind_communication | Speedup.Kind_amdahl
  | Speedup.Kind_general | Speedup.Kind_power ->
    false

let search (a : Task.analyzed) bound =
  if exhaustive a then scan_feasible_linear a bound
  else smallest_feasible a bound

(* The candidates Step 1 probed to find [q]: all p_max for the scan, and
   for the bisection a replay of its path, since a probe at [mid] found
   [mid] feasible exactly when [mid >= q] (hi only falls to feasible
   probes and ends at [q]; lo only rises to infeasible ones and ends below
   [q]).  Recounting costs a few integer steps and spares every decision a
   result pair. *)
let rec replay q lo hi n =
  if hi - lo <= 1 then n
  else begin
    let mid = (lo + hi) / 2 in
    if mid >= q then replay q lo mid (n + 1) else replay q mid hi (n + 1)
  end

let probes (a : Task.analyzed) q =
  if exhaustive a then a.Task.p_max
  else if q = 1 then 1
  else replay q 1 a.Task.p_max 1

(* Step 1 against an explicit absolute time bound: the one engine under
   both Algorithm 2 (bound = delta(mu) t_min) and the improved algorithm of
   Perotin–Sun (bound = rho t_min with a decoupled budget rho). *)
let step1_counted (a : Task.analyzed) ~bound =
  let q = search a bound in
  (q, probes a q)

let initial ~mu ~p task =
  let a = Task.analyze ~p task in
  search a (Mu.delta mu *. a.Task.t_min)

let kind_index = function
  | Speedup.Kind_roofline -> 0
  | Speedup.Kind_communication -> 1
  | Speedup.Kind_amdahl -> 2
  | Speedup.Kind_general -> 3
  | Speedup.Kind_power -> 4
  | Speedup.Kind_arbitrary -> 5

let kinds =
  Speedup.
    [|
      Kind_roofline; Kind_communication; Kind_amdahl; Kind_general;
      Kind_power; Kind_arbitrary;
    |]

(* Never inlined, so the bound is boxed once and that one box is shared by
   the search and the decision record; an inlined product is re-boxed at
   each use, several minor words per decision. *)
let[@inline never] budget_bound budget (a : Task.analyzed) =
  budget *. a.Task.t_min

(* Step 1 within [budget * t_min], then Step 2's ceil(mu P) cap.  [step] is
   tabulated per family here, so a decision reads one array cell. *)
let two_step ~name step =
  let steps = Array.map step kinds in
  of_explain ~name (fun (a : Task.analyzed) ->
      let beta_budget, cap_mu =
        steps.(kind_index (Speedup.kind a.Task.task.Task.speedup))
      in
      let step1_bound = budget_bound beta_budget a in
      let p_star = search a step1_bound in
      let cap =
        match cap_mu with Some mu -> Mu.cap ~mu ~p:a.Task.p | None -> a.Task.p
      in
      let final_alloc = min p_star cap in
      {
        p_star;
        beta_budget;
        step1_bound;
        cap;
        cap_applied = final_alloc < p_star;
        final_alloc;
        candidates_scanned = probes a p_star;
      })

let algorithm2 ~mu =
  (* delta(mu) is evaluated at construction, so an invalid mu is rejected
     here instead of at the first task. *)
  let d = Mu.delta mu in
  two_step ~name:(Printf.sprintf "algorithm2(mu=%.4f)" mu) (fun _ ->
      (d, Some mu))

let algorithm2_per_model =
  two_step ~name:"algorithm2(per-model mu)" (fun k ->
      (Mu.default_delta k, Some (Mu.default k)))

let no_cap ~mu =
  let d = Mu.delta mu in
  two_step ~name:(Printf.sprintf "no-cap(mu=%.4f)" mu) (fun _ -> (d, None))

let min_time = make ~name:"min-time" (fun a -> a.Task.p_max)
let sequential = make ~name:"sequential" (fun _ -> 1)
let all_p = make ~name:"all-p" (fun a -> a.Task.p)
