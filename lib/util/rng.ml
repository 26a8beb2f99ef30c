type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 finalizer: xor-shift multiply mixing of the advanced state. *)
let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix64 (Int64.of_int seed) }

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = int64 t in
  { state = s }

let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n: negative count";
  if n = 0 then [||]
  else begin
    (* Explicit order: [Array.init] does not specify its evaluation order and
       [split] mutates [t], so siblings are drawn with a plain loop. *)
    let out = Array.make n (split t) in
    for i = 1 to n - 1 do
      out.(i) <- split t
    done;
    out
  end

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is negligible because bound
     is tiny compared to 2^62. *)
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  v mod bound

let float t bound =
  if bound <= 0. then invalid_arg "Rng.float: bound must be positive";
  (* 53 random mantissa bits mapped into [0, 1). *)
  let bits = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bits /. 9007199254740992.0 *. bound

let float_range t lo hi =
  if lo >= hi then invalid_arg "Rng.float_range: empty range";
  lo +. float t (hi -. lo)

let int_range t lo hi =
  if lo > hi then invalid_arg "Rng.int_range: empty range";
  lo + int t (hi - lo + 1)

let bernoulli t p = float t 1.0 < p

let exponential t mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let log_uniform t lo hi =
  if lo <= 0. || hi < lo then invalid_arg "Rng.log_uniform: bad range";
  if lo = hi then lo else exp (float_range t (log lo) (log hi))
