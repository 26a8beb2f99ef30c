type t =
  | Roofline of { w : float; ptilde : int }
  | Communication of { w : float; c : float }
  | Amdahl of { w : float; d : float }
  | General of { w : float; ptilde : int; d : float; c : float }
  | Power of { w : float; alpha : float }
  | Arbitrary of { name : string; time : int -> float }

type kind = Kind_roofline | Kind_communication | Kind_amdahl | Kind_general
          | Kind_power | Kind_arbitrary

let kind = function
  | Roofline _ -> Kind_roofline
  | Communication _ -> Kind_communication
  | Amdahl _ -> Kind_amdahl
  | General _ -> Kind_general
  | Power _ -> Kind_power
  | Arbitrary _ -> Kind_arbitrary

let kind_name = function
  | Kind_roofline -> "roofline"
  | Kind_communication -> "communication"
  | Kind_amdahl -> "amdahl"
  | Kind_general -> "general"
  | Kind_power -> "power"
  | Kind_arbitrary -> "arbitrary"

(* The range checks come first, so a finite value keeps the message it
   always had.  A value past them that is infinite or NaN (a wire number
   such as [1e400] reads as infinity) is rejected after them: it gives no
   finite execution time, and a simulation cannot schedule it. *)
let validate = function
  | Roofline { w; ptilde } ->
    if w <= 0. then Error "roofline: w must be > 0"
    else if ptilde < 1 then Error "roofline: ptilde must be >= 1"
    else if not (Float.is_finite w) then Error "roofline: w must be finite"
    else Ok ()
  | Communication { w; c } ->
    if w <= 0. then Error "communication: w must be > 0"
    else if c <= 0. then Error "communication: c must be > 0"
    else if not (Float.is_finite w) then Error "communication: w must be finite"
    else if not (Float.is_finite c) then Error "communication: c must be finite"
    else Ok ()
  | Amdahl { w; d } ->
    if w <= 0. then Error "amdahl: w must be > 0"
    else if d <= 0. then Error "amdahl: d must be > 0"
    else if not (Float.is_finite w) then Error "amdahl: w must be finite"
    else if not (Float.is_finite d) then Error "amdahl: d must be finite"
    else Ok ()
  | General { w; ptilde; d; c } ->
    if w <= 0. then Error "general: w must be > 0"
    else if ptilde < 1 then Error "general: ptilde must be >= 1"
    else if d < 0. then Error "general: d must be >= 0"
    else if c < 0. then Error "general: c must be >= 0"
    else if not (Float.is_finite w) then Error "general: w must be finite"
    else if not (Float.is_finite d) then Error "general: d must be finite"
    else if not (Float.is_finite c) then Error "general: c must be finite"
    else Ok ()
  | Power { w; alpha } ->
    if w <= 0. then Error "power: w must be > 0"
    else if not (alpha > 0. && alpha <= 1.) then
      Error "power: alpha must be in (0, 1]"
    else if not (Float.is_finite w) then Error "power: w must be finite"
    else Ok ()
  | Arbitrary { time; _ } ->
    if time 1 <= 0. then Error "arbitrary: t(1) must be > 0" else Ok ()

let time m p =
  if p < 1 then invalid_arg "Speedup.time: p must be >= 1";
  let fp = float_of_int p in
  match m with
  | Roofline { w; ptilde } -> w /. float_of_int (min p ptilde)
  | Communication { w; c } -> (w /. fp) +. (c *. (fp -. 1.))
  | Amdahl { w; d } -> (w /. fp) +. d
  | General { w; ptilde; d; c } ->
    (w /. float_of_int (min p ptilde)) +. d +. (c *. (fp -. 1.))
  | Power { w; alpha } -> w /. (fp ** alpha)
  | Arbitrary { time; _ } -> time p

let area m p = float_of_int p *. time m p
let speedup m p = time m 1 /. time m p
let canonical_general = function
  | Roofline { w; ptilde } -> Some (General { w; ptilde; d = 0.; c = 0. })
  | Communication { w; c } -> Some (General { w; ptilde = max_int; d = 0.; c })
  | Amdahl { w; d } -> Some (General { w; ptilde = max_int; d; c = 0. })
  | General _ as g -> Some g
  | Power _ | Arbitrary _ -> None

let pp ppf = function
  | Roofline { w; ptilde } ->
    Format.fprintf ppf "roofline(w=%g, ptilde=%d)" w ptilde
  | Communication { w; c } -> Format.fprintf ppf "comm(w=%g, c=%g)" w c
  | Amdahl { w; d } -> Format.fprintf ppf "amdahl(w=%g, d=%g)" w d
  | General { w; ptilde; d; c } ->
    if ptilde = max_int then
      Format.fprintf ppf "general(w=%g, ptilde=inf, d=%g, c=%g)" w d c
    else Format.fprintf ppf "general(w=%g, ptilde=%d, d=%g, c=%g)" w ptilde d c
  | Power { w; alpha } -> Format.fprintf ppf "power(w=%g, alpha=%g)" w alpha
  | Arbitrary { name; _ } -> Format.fprintf ppf "arbitrary(%s)" name

let to_string m = Format.asprintf "%a" pp m
