open Moldable_model

type params = { mu : float; rho : float }

(* Per-model parameters of the improved algorithm (Perotin & Sun,
   "Improved Online Scheduling of Moldable Task Graphs under Common
   Speedup Models", arXiv:2304.14127).  The refined analysis decouples
   the execution-time budget [rho] from the utilization parameter [mu]
   (the original Algorithm 2 ties them through rho = delta(mu)), and its
   lower-bound pairing lets the cap fraction exceed the ICPP 2022 ceiling
   (3 - sqrt 5)/2.  The values below are the numerical optimizers of the
   refined per-model ratio expressions; tests pin that the measured ratio
   of the resulting allocator never exceeds the improved proven bounds
   (Improved_bounds) on the adversarial families and random sweeps.

   For the roofline model the original parameters are already optimal
   (the 2.618 bound is tight against the Theorem 5 adversary), so the
   improved algorithm coincides with Algorithm 2 there. *)
let params_roofline = { mu = Mu.default Speedup.Kind_roofline; rho = 1.0 }
let params_communication = { mu = 0.3486; rho = 1.4569 }
let params_amdahl = { mu = 0.3110; rho = 2.0269 }
let params_general = { mu = 0.2954; rho = 2.1993 }

let params = function
  | Speedup.Kind_roofline -> params_roofline
  | Speedup.Kind_communication -> params_communication
  | Speedup.Kind_amdahl -> params_amdahl
  | Speedup.Kind_general -> params_general
  (* No proven guarantee for power/arbitrary; reuse the general-model
     parameters, mirroring Mu.default's convention for Algorithm 2. *)
  | Speedup.Kind_power -> params_general
  | Speedup.Kind_arbitrary -> params_general

(* Step-1 budget and cap fraction for {!Allocator.two_step}, once the
   parameters pass the admissibility conditions the refined analysis
   needs. *)
let step { mu; rho } =
  if not (mu > 0. && mu <= 0.5) then
    invalid_arg
      (Printf.sprintf "Improved_alloc: mu=%g outside (0, 1/2]" mu);
  if not (rho >= 1.) then
    invalid_arg (Printf.sprintf "Improved_alloc: rho=%g must be >= 1" rho);
  (rho, Some mu)

(* Two-phase allocation.  Phase 1: smallest allocation whose execution
   time is within rho * t_min (minimum area under the decoupled budget;
   exhaustive minimum-area scan for non-monotonic Arbitrary models).
   Phase 2: cap at ceil(mu P) — same guarded rounding as Algorithm 2's
   cap, but with the improved analysis' larger mu, so low-utilization
   instants still always fit some ready task while wide tasks keep more
   of their parallelism.  Both phases are Algorithm 2's two steps with
   [rho] as the Step-1 budget. *)
let allocator ~mu ~rho =
  let step = step { mu; rho } in
  Allocator.two_step
    ~name:(Printf.sprintf "improved(mu=%.4f, rho=%.4f)" mu rho)
    (fun _ -> step)

(* [two_step] evaluates [step] for every family at construction, so a bad
   edit of the per-model table fails at module init, not deep in a
   sweep. *)
let per_model =
  Allocator.two_step ~name:"improved(per-model)" (fun k -> step (params k))
