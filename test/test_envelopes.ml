(* Differential tests tying the implementation to the theory: the (alpha,
   beta) pair actually achieved by Algorithm 2's initial allocation must lie
   inside the per-model envelope proved in Lemmas 6-9, for the optimal mu of
   each theorem.  These are the exact inequalities the competitive-ratio
   proofs rest on, checked on thousands of random tasks. *)

open Moldable_model
open Moldable_core
open Moldable_util

let task m = Task.make ~id:0 m

(* Achieved (alpha, beta) of the Step 1 allocation. *)
let achieved ~mu ~p m =
  let t = task m in
  let a = Task.analyze ~p t in
  let q = Allocator.initial ~mu ~p t in
  (Task.alpha a q, Task.beta a q)

let check_envelope ~name ~mu ~alpha_bound ~beta_bound ~p m =
  let alpha, beta = achieved ~mu ~p m in
  if not (Fcmp.leq ~eps:1e-6 alpha alpha_bound) then
    QCheck.Test.fail_reportf "%s: alpha %.6f > bound %.6f for %s (P=%d)" name
      alpha alpha_bound (Speedup.to_string m) p;
  if not (Fcmp.leq ~eps:1e-6 beta beta_bound) then
    QCheck.Test.fail_reportf "%s: beta %.6f > bound %.6f for %s (P=%d)" name
      beta beta_bound (Speedup.to_string m) p;
  true

let mu_of family =
  match family with
  | Moldable_theory.Model_bounds.Roofline -> Mu.default Speedup.Kind_roofline
  | Moldable_theory.Model_bounds.Communication ->
    Mu.default Speedup.Kind_communication
  | Moldable_theory.Model_bounds.Amdahl -> Mu.default Speedup.Kind_amdahl
  | Moldable_theory.Model_bounds.General -> Mu.default Speedup.Kind_general

let envelope family =
  let mu = mu_of family in
  match Moldable_theory.Model_bounds.x_star family ~mu with
  | None -> Alcotest.fail "expected feasible x*"
  | Some x ->
    ( mu,
      Moldable_theory.Model_bounds.alpha_of_x family x,
      Mu.delta mu (* beta is constrained by delta, not beta_x *) )

let gen_seeded = QCheck.int_range 0 10_000_000

let prop_roofline_envelope =
  QCheck.Test.make ~name:"roofline: Lemma 6 gives alpha = beta = 1" ~count:500
    gen_seeded
    (fun seed ->
      let rng = Rng.create seed in
      let mu = Mu.default Speedup.Kind_roofline in
      let w = Rng.log_uniform rng 0.1 10_000. in
      let p = Rng.int_range rng 1 2048 in
      let ptilde = Rng.int_range rng 1 (2 * p) in
      let m = Speedup.Roofline { w; ptilde } in
      let alpha, beta = achieved ~mu ~p m in
      Fcmp.approx alpha 1. && Fcmp.approx beta 1.)

let prop_communication_envelope =
  let family = Moldable_theory.Model_bounds.Communication in
  QCheck.Test.make
    ~name:"communication: Lemma 7 envelope (alpha <= alpha_x*, beta <= delta)"
    ~count:1000 gen_seeded
    (fun seed ->
      let rng = Rng.create seed in
      let mu, alpha_x, delta = envelope family in
      (* Lemma 7 proves alpha_x for Case 2 and 4/3 for Case 1; the envelope
         is the max of both. *)
      let alpha_bound = Float.max alpha_x (4. /. 3.) in
      let w = Rng.log_uniform rng 0.1 100_000. in
      let c = Rng.log_uniform rng 1e-4 100. in
      let p = Rng.int_range rng 1 2048 in
      check_envelope ~name:"comm" ~mu ~alpha_bound ~beta_bound:delta ~p
        (Speedup.Communication { w; c }))

let prop_amdahl_envelope =
  let family = Moldable_theory.Model_bounds.Amdahl in
  QCheck.Test.make
    ~name:"amdahl: Lemma 8 envelope (alpha <= 1 + x*, beta <= delta)"
    ~count:1000 gen_seeded
    (fun seed ->
      let rng = Rng.create seed in
      let mu, alpha_x, delta = envelope family in
      let w = Rng.log_uniform rng 0.1 100_000. in
      let d = Rng.log_uniform rng 1e-4 1_000. in
      let p = Rng.int_range rng 1 2048 in
      check_envelope ~name:"amdahl" ~mu ~alpha_bound:alpha_x ~beta_bound:delta
        ~p
        (Speedup.Amdahl { w; d }))

let prop_general_envelope =
  let family = Moldable_theory.Model_bounds.General in
  QCheck.Test.make
    ~name:"general: Lemma 9 envelope (alpha <= alpha_x*, beta <= delta)"
    ~count:1000 gen_seeded
    (fun seed ->
      let rng = Rng.create seed in
      let mu, alpha_x, delta = envelope family in
      let w = Rng.log_uniform rng 0.1 100_000. in
      let c = Rng.log_uniform rng 1e-4 10. in
      let d = Rng.log_uniform rng 1e-4 100. in
      let p = Rng.int_range rng 1 2048 in
      let ptilde = Rng.int_range rng 1 (4 * p) in
      (* Lemma 9 normalizes w' = w/c and needs w' > 1 for the alpha_x bound;
         the w' <= 1 case has alpha = 1.  The envelope is their max. *)
      check_envelope ~name:"general" ~mu ~alpha_bound:alpha_x ~beta_bound:delta
        ~p
        (Speedup.General { w; ptilde; d; c }))

(* The final allocation (after the Step 2 cap) keeps the area bound: the cap
   only shrinks the allocation and the area is non-decreasing (Lemma 3's
   premise). *)
let prop_cap_preserves_alpha =
  QCheck.Test.make
    ~name:"Step 2 cap never increases the area ratio" ~count:500 gen_seeded
    (fun seed ->
      let rng = Rng.create seed in
      let kind =
        Rng.choose rng
          [| Speedup.Kind_roofline; Speedup.Kind_communication;
             Speedup.Kind_amdahl; Speedup.Kind_general |]
      in
      let m = Moldable_workloads.Params.random rng kind in
      let mu = Rng.float_range rng 0.05 Mu.mu_max in
      let p = Rng.int_range rng 1 512 in
      let t = task m in
      let a = Task.analyze ~p t in
      let q0 = Allocator.initial ~mu ~p t in
      let q1 = (Allocator.algorithm2 ~mu).Allocator.allocate ~p t in
      Fcmp.leq (Task.alpha a q1) (Task.alpha a q0))

(* The beta of the FINAL allocation can exceed delta (when the cap bites)
   but never exceeds 1/mu — the inequality Lemma 4 actually uses. *)
let prop_final_beta_within_inv_mu =
  QCheck.Test.make
    ~name:"final allocation beta <= 1/mu (Lemma 4 premise)" ~count:800
    gen_seeded
    (fun seed ->
      let rng = Rng.create seed in
      let kind =
        Rng.choose rng
          [| Speedup.Kind_roofline; Speedup.Kind_communication;
             Speedup.Kind_amdahl; Speedup.Kind_general |]
      in
      let m = Moldable_workloads.Params.random rng kind in
      let mu = Mu.default kind in
      let p = Rng.int_range rng 1 512 in
      let t = task m in
      let a = Task.analyze ~p t in
      let q = (Allocator.algorithm2 ~mu).Allocator.allocate ~p t in
      Fcmp.leq ~eps:1e-6 (Task.beta a q) (1. /. mu))

(* Adversarial instances stay exact for arbitrary platform sizes. *)
let prop_comm_instance_exact =
  QCheck.Test.make ~name:"communication instance: simulation = prediction"
    ~count:15
    QCheck.(int_range 8 120)
    (fun p ->
      let inst = Moldable_adversary.Instances.communication ~p in
      let r = Moldable_adversary.Instances.run_online inst in
      Fcmp.approx ~eps:1e-6
        (Moldable_sim.Schedule.makespan r.Moldable_sim.Sim_core.schedule)
        inst.Moldable_adversary.Instances.predicted_online)

let prop_amdahl_instance_exact =
  QCheck.Test.make ~name:"amdahl instance: simulation = prediction" ~count:10
    QCheck.(int_range 4 24)
    (fun k ->
      let inst = Moldable_adversary.Instances.amdahl ~k in
      let r = Moldable_adversary.Instances.run_online inst in
      Fcmp.approx ~eps:1e-6
        (Moldable_sim.Schedule.makespan r.Moldable_sim.Sim_core.schedule)
        inst.Moldable_adversary.Instances.predicted_online)

let prop_general_instance_exact =
  QCheck.Test.make ~name:"general instance: simulation = prediction" ~count:10
    QCheck.(int_range 6 24)
    (fun k ->
      let inst = Moldable_adversary.Instances.general ~k in
      let r = Moldable_adversary.Instances.run_online inst in
      Fcmp.approx ~eps:1e-6
        (Moldable_sim.Schedule.makespan r.Moldable_sim.Sim_core.schedule)
        inst.Moldable_adversary.Instances.predicted_online)

(* The headline theorem, parameterized: for ANY admissible mu at which the
   family's constraint is feasible, the measured ratio on random graphs
   stays below the Lemma 5 bound evaluated at that mu, not only at the
   optimum. *)
let prop_ratio_below_bound_any_mu =
  QCheck.Test.make ~name:"measured ratio <= UB(mu) for random feasible mu"
    ~count:60 gen_seeded
    (fun seed ->
      let rng = Rng.create seed in
      let family =
        Rng.choose rng
          [| Moldable_theory.Model_bounds.Roofline;
             Moldable_theory.Model_bounds.Communication;
             Moldable_theory.Model_bounds.Amdahl;
             Moldable_theory.Model_bounds.General |]
      in
      let kind =
        match family with
        | Moldable_theory.Model_bounds.Roofline -> Speedup.Kind_roofline
        | Moldable_theory.Model_bounds.Communication ->
          Speedup.Kind_communication
        | Moldable_theory.Model_bounds.Amdahl -> Speedup.Kind_amdahl
        | Moldable_theory.Model_bounds.General -> Speedup.Kind_general
      in
      let mu = Rng.float_range rng 0.05 Mu.mu_max in
      let bound = Moldable_theory.Model_bounds.upper_bound_at family ~mu in
      if bound = infinity then true
      else begin
        let dag =
          Moldable_workloads.Random_dag.layered ~rng ~n_layers:4 ~width:6
            ~edge_prob:0.3 ~kind ()
        in
        let p = Rng.int_range rng 4 128 in
        let makespan =
          Moldable_core.Online_scheduler.makespan
            ~allocator:(Allocator.algorithm2 ~mu) ~p dag
        in
        let lb =
          (Moldable_graph.Bounds.compute ~p dag).Moldable_graph.Bounds
            .lower_bound
        in
        makespan /. lb <= bound +. 1e-6
      end)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "envelopes"
    [
      ( "lemma_envelopes",
        [
          qt prop_roofline_envelope;
          qt prop_communication_envelope;
          qt prop_amdahl_envelope;
          qt prop_general_envelope;
          qt prop_cap_preserves_alpha;
          qt prop_final_beta_within_inv_mu;
        ] );
      ( "competitive_ratio",
        [ qt prop_ratio_below_bound_any_mu ] );
      ( "instances_exact",
        [
          qt prop_comm_instance_exact;
          qt prop_amdahl_instance_exact;
          qt prop_general_instance_exact;
        ] );
    ]
