open Moldable_model

(* Per family (indexed by [kind_index]): the Step-1 budget and the Step-2
   cap fraction, [None] for no cap.  A trivial rule maps the platform size,
   p_max and the task straight to the allocation. *)
type rule =
  | Two_step of (float * float option) array
  | Trivial of (p:int -> p_max:int -> Task.t -> int)

type t = { name : string; rule : rule }

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
  | Speedup.Kind_arbitrary -> not a.Task.monotonic
  | Speedup.Kind_roofline | Speedup.Kind_communication | Speedup.Kind_amdahl
  | Speedup.Kind_general | Speedup.Kind_power ->
    false

let search (a : Task.analyzed) bound =
  if exhaustive a then scan_feasible_linear a bound
  else
    Speedup.smallest_within a.Task.task.Task.speedup ~p_max:a.Task.p_max
      bound

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

let cap_of cap_mu ~p =
  match cap_mu with Some mu -> Mu.cap ~mu ~p | None -> p

(* Never inlined, so the bound is boxed once and that one box is shared by
   the search and the decision record; an inlined product is re-boxed at
   each use, several minor words per decision. *)
let[@inline never] budget_bound budget (a : Task.analyzed) =
  budget *. a.Task.t_min

(* The rule with its provenance.  A two-step rule runs Step 1 within
   [budget * t_min], then Step 2's ceil(mu P) cap, with the knobs of the
   task's family read from one array cell; a trivial rule has no budget,
   no cap and no scan count. *)
let explain_rule rule (a : Task.analyzed) : Task.decision =
  match rule with
  | Trivial f ->
    let q = f ~p:a.Task.p ~p_max:a.Task.p_max a.Task.task in
    {
      analysis = a;
      p_star = q;
      beta_budget = Float.nan;
      step1_bound = Float.nan;
      cap = a.Task.p;
      cap_applied = false;
      final_alloc = q;
      candidates_scanned = 0;
    }
  | Two_step steps ->
    let beta_budget, cap_mu =
      steps.(kind_index (Speedup.kind a.Task.task.Task.speedup))
    in
    let step1_bound = budget_bound beta_budget a in
    let p_star = search a step1_bound in
    let cap = cap_of cap_mu ~p:a.Task.p in
    let final_alloc = Int.min p_star cap in
    {
      analysis = a;
      p_star;
      beta_budget;
      step1_bound;
      cap;
      cap_applied = final_alloc < p_star;
      final_alloc;
      candidates_scanned = probes a p_star;
    }

let explain t a = explain_rule t.rule a
let allocate t ~p task = (explain t (Task.analyze ~p task)).final_alloc
let make ~name f = { name; rule = Trivial f }

(* [step] is tabulated per family here, so a decision reads one array
   cell. *)
let two_step ~name step = { name; rule = Two_step (Array.map step kinds) }

(* ---------------------------------------------------------------- kernel *)

type kernel = { rule : rule; p : int; caps : int array }

let kernel (t : t) ~p =
  if p < 1 then invalid_arg "Allocator.kernel: p must be >= 1";
  let caps =
    match t.rule with
    | Two_step steps -> Array.map (fun (_, cap_mu) -> cap_of cap_mu ~p) steps
    | Trivial _ -> [||]
  in
  { rule = t.rule; p; caps }

(* [explain_rule]'s decision without its record: the same p_max and t_min
   as [Task.analyze], the same Step-1 search within the same bound, the
   same cap (computed once per kernel) and the same [Int.min].  Only an
   [Arbitrary] model, whose search depends on Lemma 1's property as the
   analysis memoizes it, goes through the analysis and the record. *)
let decide k task t_min =
  let p = k.p and m = task.Task.speedup in
  match Speedup.kind m with
  | Speedup.Kind_arbitrary ->
    let a = Task.analyze ~p task in
    t_min.(0) <- a.Task.t_min;
    (explain_rule k.rule a).final_alloc
  | kind -> (
    let p_max = Speedup.closed_p_max ~p m in
    let tm = Speedup.time m p_max in
    t_min.(0) <- tm;
    match k.rule with
    | Trivial f -> f ~p ~p_max task
    | Two_step steps ->
      let i = kind_index kind in
      let budget, _ = steps.(i) in
      Int.min (Speedup.smallest_within m ~p_max (budget *. tm)) k.caps.(i))

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

let min_time = make ~name:"min-time" (fun ~p:_ ~p_max _ -> p_max)
let sequential = make ~name:"sequential" (fun ~p:_ ~p_max:_ _ -> 1)
let all_p = make ~name:"all-p" (fun ~p ~p_max:_ _ -> p)
