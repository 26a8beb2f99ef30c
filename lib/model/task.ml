type t = { id : int; label : string; speedup : Speedup.t }

let make ?label ~id speedup =
  (match Speedup.validate speedup with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Task.make: " ^ msg));
  let label = match label with Some l -> l | None -> Printf.sprintf "t%d" id in
  { id; label; speedup }

let time t p = Speedup.time t.speedup p
let area t p = Speedup.area t.speedup p

type mono_memo = Mono_unknown | Mono_yes | Mono_no

type analyzed = {
  task : t;
  p : int;
  p_max : int;
  t_min : float;
  a_min : float;
  mutable mono : mono_memo;
}

(* pbar of Equation (5): the integer neighbour of s = sqrt(w/c) with the
   smaller execution time; meaningful only when c > 0.  The continuous
   optimum is clamped to [1, P] before integer conversion: [int_of_float]
   is unspecified outside the [int] range, and extreme parameters (huge [w],
   tiny [c]) push [s] past it — callers take [min p] anyway, so clamping
   loses nothing.  The lo/hi tie-break is tolerant so that a difference
   within rounding noise resolves to the smaller allocation. *)
let pbar_of ~w ~c ~p m =
  let s =
    Moldable_util.Fcmp.clamp ~lo:1. ~hi:(float_of_int p) (sqrt (w /. c))
  in
  let lo = max 1 (int_of_float (floor s)) in
  let hi = max lo (int_of_float (ceil s)) in
  if Moldable_util.Fcmp.leq (Speedup.time m lo) (Speedup.time m hi) then lo
  else hi

(* -1 when the model has no closed form (Arbitrary): an int sentinel
   instead of an option so the per-task analysis allocates nothing on the
   closed-form path. *)
let closed_form_p_max ~p (m : Speedup.t) =
  match m with
  | Speedup.Roofline { ptilde; _ } -> min p ptilde
  | Speedup.Communication { w; c } -> min p (pbar_of ~w ~c ~p m)
  | Speedup.Amdahl _ -> p
  | Speedup.General { w; ptilde; c; _ } ->
    if c > 0. then min p (min ptilde (pbar_of ~w ~c ~p m))
    else min p ptilde
  | Speedup.Power _ -> p (* strictly decreasing execution time *)
  | Speedup.Arbitrary _ -> -1

(* Lemma 1's monotonic property, checked by evaluating the model. *)
let monotonic_scan t p_max =
  let ok = ref true in
  for q = 1 to p_max - 1 do
    let tq = time t q and tq1 = time t (q + 1) in
    let aq = area t q and aq1 = area t (q + 1) in
    if not (Moldable_util.Fcmp.geq tq tq1) then ok := false;
    if not (Moldable_util.Fcmp.leq aq aq1) then ok := false
  done;
  !ok

let analyze ~p t =
  if p < 1 then invalid_arg "Task.analyze: platform size must be >= 1";
  match closed_form_p_max ~p t.speedup with
  | p_max when p_max >= 1 ->
    let t_min = time t p_max in
    let a_min = area t 1 in
    { task = t; p; p_max; t_min; a_min; mono = Mono_unknown }
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
    let mono =
      let ok = ref true in
      for q = 1 to p_max - 1 do
        if not (Moldable_util.Fcmp.geq times.(q - 1) times.(q)) then ok := false;
        if not (Moldable_util.Fcmp.leq (a_of q) (a_of (q + 1))) then ok := false
      done;
      if !ok then Mono_yes else Mono_no
    in
    { task = t; p; p_max; t_min; a_min; mono }

let alpha a q = area a.task q /. a.a_min
let beta a q = time a.task q /. a.t_min
let monotonic a =
  match a.mono with
  | Mono_yes -> true
  | Mono_no -> false
  | Mono_unknown ->
    let ok = monotonic_scan a.task a.p_max in
    a.mono <- (if ok then Mono_yes else Mono_no);
    ok
