open Moldable_model

let mu_max = (3. -. sqrt 5.) /. 2.

let delta mu =
  if mu <= 0. || mu > mu_max +. 1e-12 then
    invalid_arg
      (Printf.sprintf "Mu.delta: mu=%g outside (0, (3-sqrt 5)/2]" mu);
  (1. -. (2. *. mu)) /. (mu *. (1. -. mu))

(* Numerical optima of the competitive ratio for each family (Theorems 1-4).
   The theory library recomputes them from scratch; tests check agreement. *)
let mu_roofline = mu_max
let mu_communication = 0.3239
let mu_amdahl = 0.2710
let mu_general = 0.2113

let default = function
  | Speedup.Kind_roofline -> mu_roofline
  | Speedup.Kind_communication -> mu_communication
  | Speedup.Kind_amdahl -> mu_amdahl
  | Speedup.Kind_general -> mu_general
  | Speedup.Kind_power -> mu_general (* no guarantee; general's mu as default *)
  | Speedup.Kind_arbitrary -> mu_general

(* delta of each default mu, evaluated once at module init: the per-model
   allocator consults delta on every allocation decision, and recomputing
   it there costs a division chain plus a boxed result per task. *)
let delta_roofline = delta mu_roofline
let delta_communication = delta mu_communication
let delta_amdahl = delta mu_amdahl
let delta_general = delta mu_general

let default_delta = function
  | Speedup.Kind_roofline -> delta_roofline
  | Speedup.Kind_communication -> delta_communication
  | Speedup.Kind_amdahl -> delta_amdahl
  | Speedup.Kind_general -> delta_general
  | Speedup.Kind_power -> delta_general
  | Speedup.Kind_arbitrary -> delta_general

let cap ~mu ~p =
  if p < 1 then invalid_arg "Mu.cap: p must be >= 1";
  (* ceil(mu * P) of Algorithm 2, step 2.  The product is computed in floats,
     so a mathematically integral mu * P can land an ulp above its integer
     value and inflate the cap by one whole processor; the guarded ceil
     shaves a relative epsilon before rounding so exact multiples stay
     exact.  Non-integral products are unaffected: they sit at least 1/P
     above the next integer for rational mu, far beyond the epsilon. *)
  Int.max 1 (Moldable_util.Numerics.iceil_guarded (mu *. float_of_int p))
