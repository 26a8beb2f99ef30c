let default_eps = 1e-9

let approx ?(eps = default_eps) a b =
  let diff = Float.abs (a -. b) in
  let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
  diff <= eps *. scale

let leq ?(eps = default_eps) a b = a <= b || approx ~eps a b
let geq ?(eps = default_eps) a b = a >= b || approx ~eps a b
let lt ?(eps = default_eps) a b = a < b && not (approx ~eps a b)

