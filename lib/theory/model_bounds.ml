type family = Roofline | Communication | Amdahl | General

let family_name = function
  | Roofline -> "roofline"
  | Communication -> "communication"
  | Amdahl -> "amdahl"
  | General -> "general"

let all_families = [ Roofline; Communication; Amdahl; General ]

let family_of_kind = function
  | Moldable_model.Speedup.Kind_roofline -> Some Roofline
  | Moldable_model.Speedup.Kind_communication -> Some Communication
  | Moldable_model.Speedup.Kind_amdahl -> Some Amdahl
  | Moldable_model.Speedup.Kind_general -> Some General
  | Moldable_model.Speedup.Kind_power | Moldable_model.Speedup.Kind_arbitrary
    ->
    None

let alpha_of_x family x =
  match family with
  | Roofline -> 1.
  | Communication -> 1. +. (x *. x) +. (x /. 3.)        (* Lemma 7 *)
  | Amdahl -> 1. +. x                                   (* Lemma 8 *)
  | General -> 1. +. (1. /. x) +. (1. /. (x *. x))      (* Lemma 9 *)

let beta_of_x family x =
  match family with
  | Roofline -> 1.
  | Communication -> (3. /. (5. *. x)) +. (3. *. x /. 5.)
  | Amdahl -> 1. +. (1. /. x)
  | General -> x +. 1. +. (1. /. x)

let x_star family ~mu =
  let delta = Moldable_core.Mu.delta mu in
  match family with
  | Roofline -> if delta >= 1. then Some 0. else None
  | Communication ->
    (* Smallest root of (3/5) x^2 - delta x + 3/5 <= 0 (proof of Thm 2). *)
    let disc = (delta *. delta) -. (36. /. 25.) in
    if disc < 0. then None
    else Some (5. /. 6. *. (delta -. sqrt disc))
  | Amdahl ->
    (* x*_mu = mu(1-mu) / (mu^2 - 3mu + 1) (proof of Thm 3); the
       denominator is delta - 1 times mu(1-mu), positive iff delta > 1. *)
    let denom = (mu *. mu) -. (3. *. mu) +. 1. in
    if denom <= 0. then None
    else begin
      let x = mu *. (1. -. mu) /. denom in
      (* The constraint beta_x = 1 + 1/x <= delta needs delta > 1. *)
      if delta > 1. then Some x else None
    end
  | General ->
    (* Largest root of x^2 - (delta - 1) x + 1 <= 0 (proof of Thm 4). *)
    let g = delta -. 1. in
    let disc = (g *. g) -. 4. in
    if disc < 0. then None else Some ((g +. sqrt disc) /. 2.)

let upper_bound_at family ~mu =
  if not (Ratio.mu_admissible mu) then infinity
  else
    match x_star family ~mu with
    | None -> infinity
    | Some x ->
      let alpha = alpha_of_x family x in
      Ratio.competitive ~mu ~alpha

let optimize ?(grid = 20_000) family =
  let lo = 1e-4 and hi = Moldable_core.Mu.mu_max in
  Moldable_util.Numerics.minimize ~grid
    ~f:(fun mu -> upper_bound_at family ~mu)
    ~lo ~hi ()

let amdahl_f mu =
  let mu2 = mu *. mu in
  let mu3 = mu2 *. mu in
  let mu4 = mu3 *. mu in
  ((-2. *. mu3) +. (5. *. mu2) -. (4. *. mu) +. 1.)
  /. ((-1. *. mu4) +. (4. *. mu3) -. (4. *. mu2) +. mu)

type row = {
  family : family;
  mu_star : float;
  x_star_value : float;
  ratio : float;
  paper_ratio : float;
}

let paper_upper = function
  | Roofline -> 2.62
  | Communication -> 3.61
  | Amdahl -> 4.74
  | General -> 5.72

let table1_upper () =
  List.map
    (fun family ->
      let mu_star, ratio = optimize family in
      let x =
        match x_star family ~mu:mu_star with Some x -> x | None -> nan
      in
      { family; mu_star; x_star_value = x; ratio;
        paper_ratio = paper_upper family })
    all_families
