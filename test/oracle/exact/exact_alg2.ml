open Moldable_model
open Moldable_graph

type analyzed = {
  task : Task.t;
  p : int;
  p_max : int;
  t_min : Rat.t;
  a_min : Rat.t;
  exactness : Exact_speedup.exactness;
}

let analyze ?(eps = Exact_speedup.default_eps) ~p task =
  if p < 1 then invalid_arg "Exact_alg2.analyze: platform size must be >= 1";
  let m = task.Task.speedup in
  let exactness = Exact_speedup.exactness m in
  let p_max = Exact_speedup.p_max ~eps ~p m in
  let t_min = Exact_speedup.time m p_max in
  let a_min =
    match Speedup.kind m with
    | Speedup.Kind_arbitrary ->
      (* Mirror of the fused scan: minimal area over [1, p_max], strict
         improvement only. *)
      let best = ref (Exact_speedup.area m 1) in
      for q = 2 to p_max do
        let a = Exact_speedup.area m q in
        if Rat.compare a !best < 0 then best := a
      done;
      !best
    | _ -> Exact_speedup.area m 1
  in
  { task; p; p_max; t_min; a_min; exactness }

let delta mu =
  if Rat.sign mu <= 0 || Rat.compare mu Rat.one >= 0 then
    invalid_arg "Exact_alg2.delta: mu must be in (0, 1)";
  Rat.div
    (Rat.sub Rat.one (Rat.mul (Rat.of_int 2) mu))
    (Rat.mul mu (Rat.sub Rat.one mu))

let cap ?(eps = Exact_speedup.default_eps) ~mu p =
  if p < 1 then invalid_arg "Exact_alg2.cap: p must be >= 1";
  let x = Rat.mul mu (Rat.of_int p) in
  let shaved = Rat.sub x (Rat.mul eps (Rat.max Rat.one (Rat.abs x))) in
  max 1 (Rat.ceil_int shaved)

let cap_paper ~mu p =
  if p < 1 then invalid_arg "Exact_alg2.cap_paper: p must be >= 1";
  max 1 (Rat.ceil_int (Rat.mul mu (Rat.of_int p)))

(* Exact mirror of the tolerant Lemma 1 scan behind [Task.analyze]'s
   [monotonic] flag. *)
let monotonic ~eps (a : analyzed) =
  let m = a.task.Task.speedup in
  let ok = ref true in
  for q = 1 to a.p_max - 1 do
    let tq = Exact_speedup.time m q and tq1 = Exact_speedup.time m (q + 1) in
    let aq = Exact_speedup.area m q and aq1 = Exact_speedup.area m (q + 1) in
    if not (Rat.geq ~eps tq tq1) then ok := false;
    if not (Rat.leq ~eps aq aq1) then ok := false
  done;
  !ok

let step1 ?(eps = Exact_speedup.default_eps) (a : analyzed) ~bound =
  let m = a.task.Task.speedup in
  let feasible q = Rat.leq ~eps (Exact_speedup.time m q) bound in
  let smallest_feasible () =
    (* Trusted side of the oracle: a plain linear scan, no monotonicity
       assumption, so it also adjudicates the float path's binary search. *)
    let rec find q = if q >= a.p_max || feasible q then q else find (q + 1) in
    find 1
  in
  match Speedup.kind m with
  | Speedup.Kind_arbitrary when not (monotonic ~eps a) ->
    (* Non-monotonic arbitrary models minimize area among feasible
       allocations, ties to the smallest (scan_feasible_linear_counted). *)
    let best = ref None in
    for q = 1 to a.p_max do
      if feasible q then begin
        let area = Exact_speedup.area m q in
        match !best with
        | Some (_, ba) when Rat.compare ba area <= 0 -> ()
        | _ -> best := Some (q, area)
      end
    done;
    (match !best with Some (q, _) -> q | None -> a.p_max)
  | _ -> smallest_feasible ()

type decision = {
  p_star : int;
  bound : Rat.t;
  dcap : int;
  dcap_paper : int;
  final_alloc : int;
}

let decide ?(eps = Exact_speedup.default_eps) ~mu (a : analyzed) =
  let bound = Rat.mul (delta mu) a.t_min in
  let p_star = step1 ~eps a ~bound in
  let dcap = cap ~eps ~mu a.p in
  {
    p_star;
    bound;
    dcap;
    dcap_paper = cap_paper ~mu a.p;
    final_alloc = min p_star dcap;
  }

(* Exact mirror of the improved allocator (Improved_alloc): Step 1 against
   the decoupled budget rho instead of delta(mu), then the same guarded
   ceil(mu P) cap.  Sharing step1/cap keeps the two shadows decision-
   compatible with their float counterparts by construction. *)
let decide_improved ?(eps = Exact_speedup.default_eps) ~mu ~rho (a : analyzed)
    =
  if Rat.sign mu <= 0 || Rat.compare (Rat.mul (Rat.of_int 2) mu) Rat.one > 0
  then invalid_arg "Exact_alg2.decide_improved: mu must be in (0, 1/2]";
  if Rat.compare rho Rat.one < 0 then
    invalid_arg "Exact_alg2.decide_improved: rho must be >= 1";
  let bound = Rat.mul rho a.t_min in
  let p_star = step1 ~eps a ~bound in
  let dcap = cap ~eps ~mu a.p in
  {
    p_star;
    bound;
    dcap;
    dcap_paper = cap_paper ~mu a.p;
    final_alloc = min p_star dcap;
  }

type bounds = { a_min_total : Rat.t; c_min : Rat.t; lower_bound : Rat.t }

let lower_bound ?(eps = Exact_speedup.default_eps) ~p g =
  let n = Dag.n g in
  let az = Array.init n (fun i -> analyze ~eps ~p (Dag.task g i)) in
  let a_min_total =
    Array.fold_left (fun acc a -> Rat.add acc a.a_min) Rat.zero az
  in
  (* Weighted longest path over t_min by Kahn's algorithm, all-rational. *)
  let indeg = Array.init n (Dag.in_degree g) in
  let finish = Array.map (fun a -> a.t_min) az in
  let queue = Queue.create () in
  List.iter (fun i -> Queue.add i queue) (Dag.sources g);
  let c_min = ref Rat.zero in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    c_min := Rat.max !c_min finish.(i);
    List.iter
      (fun j ->
        let through = Rat.add finish.(i) az.(j).t_min in
        if Rat.compare through finish.(j) > 0 then finish.(j) <- through;
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then Queue.add j queue)
      (Dag.successors g i)
  done;
  let c_min = !c_min in
  let lower_bound =
    if n = 0 then Rat.zero
    else Rat.max (Rat.div a_min_total (Rat.of_int p)) c_min
  in
  { a_min_total; c_min; lower_bound }
