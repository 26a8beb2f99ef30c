let phi = (1. +. sqrt 5.) /. 2.
let resphi = 2. -. phi

let golden_section_min ?(tol = 1e-12) ~f ~lo ~hi () =
  if lo > hi then invalid_arg "Numerics.golden_section_min: empty interval";
  let rec loop a b c fb =
    (* Invariant: a < b < c and f b <= min (f a) (f c). *)
    if c -. a < tol *. (Float.abs b +. 1.) then (b, fb)
    else begin
      let x = if c -. b > b -. a then b +. (resphi *. (c -. b))
              else b -. (resphi *. (b -. a)) in
      let fx = f x in
      if fx < fb then
        if x > b then loop b x c fx else loop a x b fx
      else if x > b then loop a b x fb
      else loop x b c fb
    end
  in
  let b = lo +. (resphi *. (hi -. lo)) in
  loop lo b hi (f b)

(* A non-finite sample (NaN from a pole or 0/0, or an infinity) must never
   win the argmin: NaN in particular makes every [fx < best] comparison
   false, which used to freeze the minimizer on its first sample. *)
let grid_min ?(n = 10_000) ~f ~lo ~hi () =
  if n < 2 then invalid_arg "Numerics.grid_min: need at least 2 points";
  let best = ref None in
  for i = 0 to n - 1 do
    let x = lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)) in
    let fx = f x in
    if Float.is_finite fx then
      match !best with
      | Some (_, bf) when bf <= fx -> ()
      | _ -> best := Some (x, fx)
  done;
  match !best with
  | Some r -> r
  | None -> invalid_arg "Numerics.grid_min: f has no finite value on the grid"

let minimize ?(tol = 1e-12) ?(grid = 2_000) ~f ~lo ~hi () =
  let step = (hi -. lo) /. float_of_int grid in
  let x0, f0 = grid_min ~n:(grid + 1) ~f ~lo ~hi () in
  let a = Float.max lo (x0 -. step) and c = Float.min hi (x0 +. step) in
  (* Golden-section assumes it can compare every probe: map non-finite
     samples to +inf so they lose, and keep the best grid point as a
     fallback in case the refinement brackets a pole. *)
  let f_safe x =
    let fx = f x in
    if Float.is_finite fx then fx else infinity
  in
  let x1, f1 = golden_section_min ~tol ~f:f_safe ~lo:a ~hi:c () in
  if f1 <= f0 then (x1, f1) else (x0, f0)

let integer_argmin ~f ~lo ~hi =
  if lo > hi then invalid_arg "Numerics.integer_argmin: empty range";
  let best = ref lo and best_f = ref (f lo) in
  for p = lo + 1 to hi do
    let fp = f p in
    if fp < !best_f then begin
      best := p;
      best_f := fp
    end
  done;
  !best

let integer_argmin_unimodal ~f ~lo ~hi =
  if lo > hi then invalid_arg "Numerics.integer_argmin_unimodal: empty range";
  let a = ref lo and b = ref hi in
  while !b - !a > 2 do
    let m1 = !a + ((!b - !a) / 3) in
    let m2 = !b - ((!b - !a) / 3) in
    if f m1 <= f m2 then b := m2 else a := m1
  done;
  integer_argmin ~f ~lo:!a ~hi:!b

(* Exact integer log2, replacing [int_of_float (log x /. log 2.)] call
   sites: the float quotient lands at 2.999999... for exact powers of two
   and truncation then under-counts by one. *)
let ilog2 n =
  if n < 1 then invalid_arg "Numerics.ilog2: need n >= 1";
  let l = ref 0 and x = ref n in
  while !x > 1 do
    incr l;
    x := !x lsr 1
  done;
  !l

(* Float-to-integer rounding with a relative guard band: a mathematically
   integral product computed in floats can land an ulp on the wrong side of
   its integer value, which plain floor/ceil then shifts by one whole unit.
   Nudging by [eps * max 1 |x|] before rounding keeps exact values exact;
   genuinely fractional inputs sit far beyond the guard. *)
let iceil_guarded ?(eps = Fcmp.default_eps) x =
  if not (Float.is_finite x) then
    invalid_arg "Numerics.iceil_guarded: non-finite input";
  int_of_float (ceil (x -. (eps *. Float.max 1. (Float.abs x))))
