let default_eps = 1e-9

(* [?eps] is matched here instead of defaulted in the parameter: a
   [?(eps = default_eps)] parameter splits each function into a wrapper and
   an inner function, and ocamlopt without flambda never inlines the inner
   one, so every caller in another module would call it with boxed floats.
   Written this way, a call inlines whole and the default folds to a
   constant. *)
let[@inline] eps_of = function None -> default_eps | Some eps -> eps

let[@inline] approx ?eps a b =
  let diff = Float.abs (a -. b) in
  let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
  diff <= eps_of eps *. scale

let[@inline] leq ?eps a b = a <= b || approx ?eps a b
let[@inline] geq ?eps a b = a >= b || approx ?eps a b
let[@inline] lt ?eps a b = a < b && not (approx ?eps a b)
