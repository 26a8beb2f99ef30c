open Moldable_util
open Moldable_model

type spec = {
  w_min : float;
  w_max : float;
  d_frac_min : float;
  d_frac_max : float;
  c_frac_min : float;
  c_frac_max : float;
  ptilde_max : int;
  alpha_min : float;
  alpha_max : float;
}

let default =
  {
    w_min = 1.;
    w_max = 1000.;
    d_frac_min = 1e-3;
    d_frac_max = 0.3;
    c_frac_min = 1e-4;
    c_frac_max = 1e-2;
    ptilde_max = 512;
    alpha_min = 0.5;
    alpha_max = 0.95;
  }

let random_ptilde spec rng =
  let x = Rng.log_uniform rng 1. (float_of_int spec.ptilde_max) in
  Int.max 1 (int_of_float (Float.round x))

let with_work ?(spec = default) rng kind ~w =
  match kind with
  | Speedup.Kind_roofline ->
    Speedup.Roofline { w; ptilde = random_ptilde spec rng }
  | Speedup.Kind_communication ->
    let c = w *. Rng.log_uniform rng spec.c_frac_min spec.c_frac_max in
    Speedup.Communication { w; c }
  | Speedup.Kind_amdahl ->
    let d = w *. Rng.log_uniform rng spec.d_frac_min spec.d_frac_max in
    Speedup.Amdahl { w; d }
  | Speedup.Kind_general ->
    let d = w *. Rng.log_uniform rng spec.d_frac_min spec.d_frac_max in
    let c = w *. Rng.log_uniform rng spec.c_frac_min spec.c_frac_max in
    Speedup.General { w; ptilde = random_ptilde spec rng; d; c }
  | Speedup.Kind_power ->
    Speedup.Power { w; alpha = Rng.float_range rng spec.alpha_min spec.alpha_max }
  | Speedup.Kind_arbitrary ->
    invalid_arg "Params.with_work: no canonical arbitrary-model distribution"

let random ?(spec = default) rng kind =
  let w = Rng.log_uniform rng spec.w_min spec.w_max in
  with_work ~spec rng kind ~w
