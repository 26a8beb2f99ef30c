type t = { id : int; label : string; speedup : Speedup.t }

let make ?label ~id speedup =
  (match Speedup.validate speedup with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Task.make: " ^ msg));
  let label = match label with Some l -> l | None -> Printf.sprintf "t%d" id in
  { id; label; speedup }

let time t p = Speedup.time t.speedup p
let area t p = Speedup.area t.speedup p

type analyzed = {
  task : t;
  p : int;
  p_max : int;
  t_min : float;
  a_min : float;
  monotonic : bool;
}

let analyze ~p t =
  if p < 1 then invalid_arg "Task.analyze: platform size must be >= 1";
  match Speedup.closed_p_max ~p t.speedup with
  | p_max when p_max >= 1 ->
    let t_min = time t p_max in
    let a_min = area t 1 in
    (* Lemma 1: every closed-form model is monotonic on [1 .. p_max]. *)
    { task = t; p; p_max; t_min; a_min; monotonic = true }
  | _ ->
    (* Arbitrary speedups: the closed forms do not apply, so everything comes
       from one fused pass that evaluates the (caller-supplied, potentially
       expensive) time function exactly once per allocation, instead of the
       three separate scans (p_max, a_min, monotonicity) it replaces. *)
    let times = Array.init p (fun i -> time t (i + 1)) in
    let a_of q = float_of_int q *. times.(q - 1) in
    let p_max = ref 1 in
    for q = 2 to p do
      if times.(q - 1) < times.(!p_max - 1) then p_max := q
    done;
    let p_max = !p_max in
    let t_min = times.(p_max - 1) in
    let best_a = ref 1 in
    for q = 2 to p_max do
      if a_of q < a_of !best_a then best_a := q
    done;
    let a_min = a_of !best_a in
    let monotonic = ref true in
    for q = 1 to p_max - 1 do
      if not (Moldable_util.Fcmp.geq times.(q - 1) times.(q)) then
        monotonic := false;
      if not (Moldable_util.Fcmp.leq (a_of q) (a_of (q + 1))) then
        monotonic := false
    done;
    { task = t; p; p_max; t_min; a_min; monotonic = !monotonic }

(* Equation (5) alone: the closed forms allocate nothing, and only an
   [Arbitrary] model pays for the full analysis. *)
let p_max ~p t =
  if p < 1 then invalid_arg "Task.p_max: platform size must be >= 1";
  match Speedup.closed_p_max ~p t.speedup with
  | q when q >= 1 -> q
  | _ -> (analyze ~p t).p_max

let alpha a q = area a.task q /. a.a_min
let beta a q = time a.task q /. a.t_min

type decision = {
  analysis : analyzed;
  p_star : int;
  beta_budget : float;
  step1_bound : float;
  cap : int;
  cap_applied : bool;
  final_alloc : int;
  candidates_scanned : int;
}
