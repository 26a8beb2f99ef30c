(* The allocation rules as they stood before Algorithm 2, its ablation
   [no_cap] and the improved allocator of Perotin & Sun were built from
   one two-step constructor: an uncounted hot-path Step-1 search next to
   the counted one, and one hand-written [explain] per rule.  Kept verbatim
   (module paths and two corrected comments aside) as the differential
   oracle for [Allocator.explain] and [Allocator.allocate]. *)

open Moldable_model
open Moldable_core

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
  allocate_analyzed : Task.analyzed -> int;
  explain : Task.analyzed -> decision;
}

(* Trivial rules have no Step-1 search and no cap: the provenance is just
   the final allocation. *)
let default_explain rule (a : Task.analyzed) =
  let q = rule a in
  {
    p_star = q;
    beta_budget = Float.nan;
    step1_bound = Float.nan;
    cap = a.Task.p;
    cap_applied = false;
    final_alloc = q;
    candidates_scanned = 0;
  }

(* Both entry points share one rule over the per-platform analysis; the
   [~p] form re-analyzes, the [analyzed] form is the cache-friendly one. *)
let make ?explain ~name allocate_analyzed =
  {
    name;
    allocate = (fun ~p task -> allocate_analyzed (Task.analyze ~p task));
    allocate_analyzed;
    explain =
      (match explain with
      | Some e -> e
      | None -> default_explain allocate_analyzed);
  }

(* Smallest q in [1, p_max] with t(q) <= bound, assuming t non-increasing
   there (Lemma 1).  This uncounted form was the scheduler's hot path: a
   tail-recursive bisection with no probe counter. *)
let smallest_feasible (a : Task.analyzed) bound =
  let task = a.Task.task in
  if Moldable_util.Fcmp.leq (Task.time task 1) bound then 1
  else begin
    (* Invariant: not (feasible lo) && feasible hi. *)
    let rec bisect lo hi =
      if hi - lo <= 1 then hi
      else begin
        let mid = (lo + hi) / 2 in
        if Moldable_util.Fcmp.leq (Task.time task mid) bound then
          bisect lo mid
        else bisect mid hi
      end
    in
    bisect 1 a.Task.p_max
  end

(* Same search, plus how many feasibility candidates were probed (the
   decision-trace provenance). *)
let smallest_feasible_counted (a : Task.analyzed) bound =
  let probes = ref 0 in
  let feasible q =
    incr probes;
    Moldable_util.Fcmp.leq (Task.time a.Task.task q) bound
  in
  if feasible 1 then (1, !probes)
  else begin
    let lo = ref 1 and hi = ref a.Task.p_max in
    (* Invariant: not (feasible lo) && feasible hi. *)
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if feasible mid then hi := mid else lo := mid
    done;
    (!hi, !probes)
  end

(* Exhaustive Step 1 for arbitrary speedups: minimize area among feasible
   allocations, ties to the smallest allocation. *)
let scan_feasible_linear_counted (a : Task.analyzed) bound =
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
  | Some (q, _) -> (q, a.Task.p_max)
  | None -> (a.Task.p_max, a.Task.p_max)
  (* beta(p_max) = 1 <= delta, so the None case is unreachable *)

(* Arbitrary speedups whose sampled time/area happen to satisfy Lemma 1's
   monotonic property get the same O(log p_max) binary search as the closed
   forms (smallest feasible = smallest area among feasible); the linear scan
   remains the fallback for genuinely non-monotonic models. *)
let scan_feasible_counted (a : Task.analyzed) bound =
  if a.Task.monotonic then smallest_feasible_counted a bound
  else scan_feasible_linear_counted a bound

(* Uncounted arbitrary-model Step 1; the non-monotonic linear scan keeps
   its counted form (it is the rare path and its probe count is its
   length). *)
let scan_feasible (a : Task.analyzed) bound =
  if a.Task.monotonic then smallest_feasible a bound
  else fst (scan_feasible_linear_counted a bound)

(* Step 1 against an explicit absolute time bound: the shared engine under
   both Algorithm 2 (bound = delta(mu) t_min) and the improved algorithm of
   Perotin–Sun (bound = rho t_min with a decoupled budget rho). *)
let step1_counted (a : Task.analyzed) ~bound =
  match Speedup.kind a.Task.task.Task.speedup with
  | Speedup.Kind_arbitrary -> scan_feasible_counted a bound
  | Speedup.Kind_roofline | Speedup.Kind_communication | Speedup.Kind_amdahl
  | Speedup.Kind_general | Speedup.Kind_power ->
    smallest_feasible_counted a bound

let initial_analyzed_counted ~mu (a : Task.analyzed) =
  step1_counted a ~bound:(Mu.delta mu *. a.Task.t_min)

let step1 (a : Task.analyzed) ~bound =
  match Speedup.kind a.Task.task.Task.speedup with
  | Speedup.Kind_arbitrary -> scan_feasible a bound
  | Speedup.Kind_roofline | Speedup.Kind_communication | Speedup.Kind_amdahl
  | Speedup.Kind_general | Speedup.Kind_power ->
    smallest_feasible a bound

let initial_analyzed ~mu (a : Task.analyzed) =
  step1 a ~bound:(Mu.delta mu *. a.Task.t_min)
let initial ~mu ~p task = initial_analyzed ~mu (Task.analyze ~p task)

(* The cap is always >= 1, so a one-processor Step-1 result can skip
   deriving it (a ceil of a float product per decision). *)
let apply_cap ~mu ~p q = if q <= 1 then q else min q (Mu.cap ~mu ~p)

(* Full Algorithm 2 provenance: Step 1's initial allocation and probe count,
   the beta budget delta(mu), and whether the Step-2 ceil(mu P) cap bit. *)
let explain_algorithm2 ~mu (a : Task.analyzed) =
  let p_star, scanned = initial_analyzed_counted ~mu a in
  let cap = Mu.cap ~mu ~p:a.Task.p in
  let final_alloc = min p_star cap in
  {
    p_star;
    beta_budget = Mu.delta mu;
    step1_bound = Mu.delta mu *. a.Task.t_min;
    cap;
    cap_applied = final_alloc < p_star;
    final_alloc;
    candidates_scanned = scanned;
  }

let explain_no_cap ~mu (a : Task.analyzed) =
  let p_star, scanned = initial_analyzed_counted ~mu a in
  {
    p_star;
    beta_budget = Mu.delta mu;
    step1_bound = Mu.delta mu *. a.Task.t_min;
    cap = a.Task.p;
    cap_applied = false;
    final_alloc = p_star;
    candidates_scanned = scanned;
  }

let algorithm2 ~mu =
  (* delta(mu) hoisted to construction: it is constant across decisions
     (and an invalid mu is rejected here instead of at the first task). *)
  let d = Mu.delta mu in
  make
    ~name:(Printf.sprintf "algorithm2(mu=%.4f)" mu)
    ~explain:(explain_algorithm2 ~mu)
    (fun a -> apply_cap ~mu ~p:a.Task.p (step1 a ~bound:(d *. a.Task.t_min)))

let algorithm2_per_model =
  make ~name:"algorithm2(per-model mu)"
    ~explain:(fun a ->
      let mu = Mu.default (Speedup.kind a.Task.task.Task.speedup) in
      explain_algorithm2 ~mu a)
    (fun a ->
      let kind = Speedup.kind a.Task.task.Task.speedup in
      let q = step1 a ~bound:(Mu.default_delta kind *. a.Task.t_min) in
      if q <= 1 then q
      else min q (Mu.cap ~mu:(Mu.default kind) ~p:a.Task.p))

let no_cap ~mu =
  let d = Mu.delta mu in
  make
    ~name:(Printf.sprintf "no-cap(mu=%.4f)" mu)
    ~explain:(explain_no_cap ~mu)
    (fun a -> step1 a ~bound:(d *. a.Task.t_min))

let min_time = make ~name:"min-time" (fun a -> a.Task.p_max)
let sequential = make ~name:"sequential" (fun _ -> 1)
let all_p = make ~name:"all-p" (fun a -> a.Task.p)

let fixed q =
  make ~name:(Printf.sprintf "fixed(%d)" q) (fun a -> max 1 (min q a.Task.p))

(* {1 Improved_alloc} *)

type params = Improved_alloc.params = { mu : float; rho : float }

let params = Improved_alloc.params

let check_params { mu; rho } =
  if not (mu > 0. && mu <= 0.5) then
    invalid_arg
      (Printf.sprintf "Improved_alloc: mu=%g outside (0, 1/2]" mu);
  if not (rho >= 1.) then
    invalid_arg (Printf.sprintf "Improved_alloc: rho=%g must be >= 1" rho)

(* Two-phase allocation.  Phase 1: smallest allocation whose execution
   time is within rho * t_min (minimum area under the decoupled budget;
   exhaustive minimum-area scan for non-monotonic Arbitrary models).
   Phase 2: cap at ceil(mu P) — same guarded rounding as Algorithm 2's
   cap, but with the improved analysis' larger mu, so low-utilization
   instants still always fit some ready task while wide tasks keep more
   of their parallelism. *)
let decide_counted p { mu; rho } (a : Task.analyzed) =
  let bound = rho *. a.Task.t_min in
  let p_star, scanned = step1_counted a ~bound in
  let cap = Mu.cap ~mu ~p in
  (p_star, bound, cap, min p_star cap, scanned)

let explain_with params (a : Task.analyzed) =
  let p_star, bound, cap, final_alloc, scanned =
    decide_counted a.Task.p params a
  in
  {
    p_star;
    beta_budget = params.rho;
    step1_bound = bound;
    cap;
    cap_applied = final_alloc < p_star;
    final_alloc;
    candidates_scanned = scanned;
  }

(* Hot-path form: the uncounted Step-1 search and no provenance tuple. *)
let allocate_with { mu; rho } (a : Task.analyzed) =
  let p_star = step1 a ~bound:(rho *. a.Task.t_min) in
  min p_star (Mu.cap ~mu ~p:a.Task.p)

let allocator ~mu ~rho =
  let params = { mu; rho } in
  check_params params;
  make
    ~name:(Printf.sprintf "improved(mu=%.4f, rho=%.4f)" mu rho)
    ~explain:(explain_with params) (allocate_with params)

let params_of_task (a : Task.analyzed) =
  params (Speedup.kind a.Task.task.Task.speedup)

let per_model =
  make ~name:"improved(per-model)"
    ~explain:(fun a -> explain_with (params_of_task a) a)
    (fun a -> allocate_with (params_of_task a) a)
