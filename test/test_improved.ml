(* Differential suite for the improved online algorithm (Perotin & Sun,
   arXiv:2304.14127): proven-constant coherence, measured ratios against
   the improved bounds on the adversarial families and random instances,
   pinned original-vs-improved makespans on the paper instances, tracer
   provenance, and an exact-rational shadow sweep of the float decisions. *)

open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_util
open Moldable_core
open Moldable_theory
open Moldable_adversary
open Moldable_workloads
module Shadow = Moldable_exact.Shadow

let families =
  [ Model_bounds.Roofline; Model_bounds.Communication; Model_bounds.Amdahl;
    Model_bounds.General ]

let improved_params_of (t : Task.t) =
  let pr = Improved_alloc.params (Speedup.kind t.Task.speedup) in
  (pr.Improved_alloc.mu, pr.Improved_alloc.rho)

(* ------------------------------------------------------------- constants *)

let test_bounds_coherent () =
  Alcotest.(check bool) "transcription coherent" true
    (Improved_bounds.coherent ())

let test_bounds_strictly_improve () =
  (* Every family except roofline gets a strictly better constant; the
     roofline bound was already tight at 1 + golden ratio. *)
  List.iter
    (fun f ->
      let _, original = Model_bounds.optimize f in
      let i = Improved_bounds.upper_bound f in
      match f with
      | Model_bounds.Roofline ->
        Alcotest.(check (float 1e-3)) "roofline unchanged" original i
      | _ ->
        Alcotest.(check bool)
          (Model_bounds.family_name f ^ " strictly better")
          true
          (i < original -. 1e-3))
    families

let test_report_constants_match_theory () =
  (* Ratio_report carries the paper-reported two-decimal forms; they must
     round-trip against the theory library's table. *)
  List.iter
    (fun f ->
      let kind = Improved_bounds.kind_of_family f in
      Alcotest.(check (float 1e-9))
        (Model_bounds.family_name f)
        (Improved_bounds.paper_upper f)
        (Moldable_analysis.Ratio_report.improved_upper_bound kind))
    families;
  Alcotest.(check bool) "power unguaranteed" true
    (Float.is_integer
       (Moldable_analysis.Ratio_report.improved_upper_bound Speedup.Kind_power)
    = false
    || Moldable_analysis.Ratio_report.improved_upper_bound Speedup.Kind_power
       = infinity)

let test_params_guarded () =
  List.iter
    (fun kind ->
      let pr = Improved_alloc.params kind in
      Alcotest.(check bool) "mu in (0, 1/2]" true
        (pr.Improved_alloc.mu > 0. && pr.Improved_alloc.mu <= 0.5);
      Alcotest.(check bool) "rho >= 1" true (pr.Improved_alloc.rho >= 1.))
    [ Speedup.Kind_roofline; Speedup.Kind_communication; Speedup.Kind_amdahl;
      Speedup.Kind_general; Speedup.Kind_power; Speedup.Kind_arbitrary ];
  let rejects mu rho =
    try
      ignore (Improved_alloc.allocator ~mu ~rho);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "mu too large" true (rejects 0.6 1.5);
  Alcotest.(check bool) "mu zero" true (rejects 0. 1.5);
  Alcotest.(check bool) "rho below 1" true (rejects 0.3 0.9)

(* ------------------------------------------------- adversarial families *)

let improved_makespan ~p dag =
  let r = Online_scheduler.run ~allocator:Improved_alloc.per_model ~p dag in
  Validate.check_exn ~dag r.Sim_core.schedule;
  Schedule.makespan r.Sim_core.schedule

(* The alternative schedule's makespan upper-bounds T_opt, so the measured
   ratio here over-estimates the true competitive ratio: staying under the
   proven constant on the very instances built to saturate the original
   analysis is the acceptance criterion of the issue. *)
let test_adversarial_within_improved_bound () =
  let check family (inst : Instances.t) =
    let t = improved_makespan ~p:inst.Instances.p inst.Instances.dag in
    let ratio = t /. inst.Instances.alternative_makespan in
    let bound = Improved_bounds.upper_bound family in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.4f <= %.4f" inst.Instances.name ratio bound)
      true (ratio <= bound)
  in
  check Model_bounds.Roofline (Instances.roofline ~p:100);
  check Model_bounds.Roofline (Instances.roofline ~p:1000);
  check Model_bounds.Communication (Instances.communication ~p:100);
  check Model_bounds.Communication (Instances.communication ~p:500);
  check Model_bounds.Amdahl (Instances.amdahl ~k:10);
  check Model_bounds.Amdahl (Instances.amdahl ~k:16);
  check Model_bounds.General (Instances.general ~k:10);
  check Model_bounds.General (Instances.general ~k:16)

let test_figure3_chains_differential () =
  (* The Theorem 9 chains (arbitrary speedups carry no improved guarantee)
     still schedule validly, and the improved allocation does not lose to
     the original on them. *)
  List.iter
    (fun ell ->
      let inst = Chains.build ~ell in
      let impr = improved_makespan ~p:inst.Chains.p inst.Chains.dag in
      let orig =
        Schedule.makespan
          (Online_scheduler.run ~p:inst.Chains.p inst.Chains.dag)
            .Sim_core.schedule
      in
      Alcotest.(check bool)
        (Printf.sprintf "ell=%d improved %.4f <= original %.4f" ell impr orig)
        true
        (impr <= orig +. 1e-9))
    [ 1; 2; 3 ]

(* Pinned makespans on the paper instances: any change to either allocator
   or to the shared Step-1 engine must be deliberate enough to update
   these. *)
let test_pinned_makespans () =
  let pin name (inst : Instances.t) expected_orig expected_impr =
    let orig =
      Schedule.makespan
        (Online_scheduler.run ~p:inst.Instances.p inst.Instances.dag)
          .Sim_core.schedule
    in
    let impr = improved_makespan ~p:inst.Instances.p inst.Instances.dag in
    Alcotest.(check (float 1e-6)) (name ^ " original") expected_orig orig;
    Alcotest.(check (float 1e-6)) (name ^ " improved") expected_impr impr
  in
  pin "roofline p=100" (Instances.roofline ~p:100) 2.5641025641 2.5641025641;
  pin "communication p=128"
    (Instances.communication ~p:128)
    1052.63164282 877.862843219;
  pin "amdahl k=12" (Instances.amdahl ~k:12) 49.5338231689 38.3513271689;
  pin "general k=12" (Instances.general ~k:12) 56.7247684863 41.3463302296

(* ------------------------------------------------------ random instances *)

let kind_of_index = function
  | 0 -> Speedup.Kind_roofline
  | 1 -> Speedup.Kind_communication
  | 2 -> Speedup.Kind_amdahl
  | _ -> Speedup.Kind_general

let prop_random_within_improved_bound =
  QCheck.Test.make
    ~name:"improved ratio vs LB under the improved bound on random DAGs"
    ~count:120
    QCheck.(pair (int_range 0 3) (int_range 0 1_000_000))
    (fun (ki, seed) ->
      let kind = kind_of_index ki in
      let rng = Rng.create seed in
      let dag =
        Random_dag.layered ~rng
          ~n_layers:(Rng.int_range rng 2 6)
          ~width:(Rng.int_range rng 2 8)
          ~edge_prob:(Rng.float_range rng 0.05 0.5)
          ~kind ()
      in
      let p = Rng.int_range rng 4 128 in
      let t = improved_makespan ~p dag in
      let lb = (Bounds.compute ~p dag).Bounds.lower_bound in
      let family =
        match kind with
        | Speedup.Kind_roofline -> Model_bounds.Roofline
        | Speedup.Kind_communication -> Model_bounds.Communication
        | Speedup.Kind_amdahl -> Model_bounds.Amdahl
        | _ -> Model_bounds.General
      in
      t /. lb <= Improved_bounds.upper_bound family)

(* ---------------------------------------------------- tracer provenance *)

let test_tracer_provenance () =
  let rng = Rng.create 7 in
  let dag =
    Random_dag.layered ~rng ~n_layers:4 ~width:6 ~edge_prob:0.3
      ~kind:Speedup.Kind_amdahl ()
  in
  let p = 48 in
  let tracer = Tracer.create () in
  let result =
    Online_scheduler.run ~allocator:Improved_alloc.per_model ~tracer ~p dag
  in
  Validate.check_exn ~dag result.Sim_core.schedule;
  Alcotest.(check int) "one decision per task" (Dag.n dag)
    (Tracer.n_decisions tracer);
  let pr = Improved_alloc.params Speedup.Kind_amdahl in
  for i = 0 to Dag.n dag - 1 do
    match Tracer.decision_for tracer i with
    | None -> Alcotest.failf "no decision record for task %d" i
    | Some d ->
      Alcotest.(check (float 1e-12))
        "budget is rho" pr.Improved_alloc.rho d.Task.beta_budget;
      Alcotest.(check int) "cap is ceil(mu P)"
        (Mu.cap ~mu:pr.Improved_alloc.mu ~p)
        d.Task.cap;
      Alcotest.(check bool) "beta within budget" true
        (Task.beta d.Task.analysis d.Task.p_star
         <= pr.Improved_alloc.rho +. 1e-9
        || d.Task.p_star = d.Task.analysis.Task.p_max);
      Alcotest.(check bool) "cap_applied consistent" true
        (d.Task.cap_applied = (d.Task.final_alloc < d.Task.p_star))
  done

let test_explain_agrees_with_allocation () =
  let rng = Rng.create 11 in
  for _ = 1 to 200 do
    let kind = kind_of_index (Rng.int rng 4) in
    let m = Params.random rng kind in
    let task = Task.make ~id:0 m in
    let p = Rng.int_range rng 2 256 in
    let a = Task.analyze ~p task in
    let alloc = Improved_alloc.per_model in
    let d = Allocator.explain alloc a in
    Alcotest.(check int) "explain = allocate"
      (Allocator.allocate alloc ~p task)
      d.Task.final_alloc
  done

(* -------------------------------------------- exact shadow, 500 cells *)

(* Every float comparison of 500 seeded improved-policy runs — including
   the improved allocator's Step-1 bound [rho * t_min] and its cap —
   replayed in exact rational arithmetic.  Zero unexplained divergences is
   the acceptance gate. *)
let test_shadow_500_cells () =
  let n_unexplained = ref 0 and checks = ref 0 in
  for seed = 0 to 499 do
    let rng = Rng.create (0x1A9 + seed) in
    let kind =
      match Rng.int rng 5 with
      | 0 -> Speedup.Kind_roofline
      | 1 -> Speedup.Kind_communication
      | 2 -> Speedup.Kind_amdahl
      | 3 -> Speedup.Kind_general
      | _ -> Speedup.Kind_power
    in
    let dag =
      match Rng.int rng 3 with
      | 0 ->
        Random_dag.layered ~rng
          ~n_layers:(Rng.int_range rng 2 5)
          ~width:(Rng.int_range rng 1 6)
          ~edge_prob:(Rng.float_range rng 0.05 0.6)
          ~kind ()
      | 1 -> Random_dag.independent ~rng ~n:(Rng.int_range rng 1 20) ~kind ()
      | _ ->
        Random_dag.erdos_renyi ~rng
          ~n:(Rng.int_range rng 2 18)
          ~edge_prob:(Rng.float_range rng 0.05 0.4)
          ~kind ()
    in
    let p = Rng.int_range rng 2 96 in
    let release_times =
      if seed mod 7 = 0 then
        Some (Array.init (Dag.n dag) (fun _ -> Rng.float_range rng 0. 5.))
      else None
    in
    let failures =
      if seed mod 5 = 0 then Sim_core.bernoulli ~q:0.15 else Sim_core.never
    in
    let result =
      Online_scheduler.run ~allocator:Improved_alloc.per_model ?release_times
        ~seed ~failures ~max_attempts:64 ~p dag
    in
    let report = Shadow.check ~improved:improved_params_of ~dag ~p result in
    checks := !checks + report.Shadow.checks;
    if not (Shadow.ok report) then begin
      n_unexplained := !n_unexplained + report.Shadow.n_unexplained;
      Format.eprintf "seed %d:@ %a@." seed Shadow.pp report
    end
  done;
  Alcotest.(check bool) "performed exact checks" true (!checks > 0);
  Alcotest.(check int) "zero unexplained divergences" 0 !n_unexplained

let test_shadow_rejects_mu_and_improved () =
  let dag =
    Dag.create
      ~tasks:[ Task.make ~id:0 (Speedup.Amdahl { w = 4.; d = 0.5 }) ]
      ~edges:[]
  in
  let result =
    Online_scheduler.run ~allocator:Improved_alloc.per_model ~p:4 dag
  in
  Alcotest.check_raises "mutually exclusive"
    (Invalid_argument "Shadow.check: mu and improved are mutually exclusive")
    (fun () ->
      ignore
        (Shadow.check ~mu:0.3 ~improved:improved_params_of ~dag ~p:4 result))

(* ---------------------------------------------------- experiment wiring *)

let test_experiment_policy () =
  let rng = Rng.create 3 in
  let dags =
    List.init 4 (fun _ ->
        Random_dag.layered ~rng ~n_layers:4 ~width:6 ~edge_prob:0.25
          ~kind:Speedup.Kind_general ())
  in
  let outcomes =
    Moldable_analysis.Experiment.evaluate ~p:32 ~workload:"layered"
      ~policies:
        [ Moldable_analysis.Experiment.algorithm1;
          Moldable_analysis.Experiment.improved ]
      dags
  in
  Alcotest.(check int) "two outcome rows" 2 (List.length outcomes);
  List.iter
    (fun (o : Moldable_analysis.Experiment.outcome) ->
      Alcotest.(check int) "one ratio per instance" 4 (List.length o.ratios);
      List.iter
        (fun r -> Alcotest.(check bool) "ratio sane" true (r >= 1. -. 1e-9))
        o.ratios)
    outcomes

let test_comparison_report () =
  let rng = Rng.create 5 in
  let dags =
    List.init 3 (fun _ ->
        Random_dag.layered ~rng ~n_layers:4 ~width:6 ~edge_prob:0.25
          ~kind:Speedup.Kind_amdahl ())
  in
  let module R = Moldable_analysis.Ratio_report in
  let entries allocator bound =
    List.map
      (fun dag ->
        let r = Online_scheduler.run ~allocator ~p:32 dag in
        R.of_run ?proven_bound:bound ~workload:"layered" ~p:32
          ~makespan:(Schedule.makespan r.Sim_core.schedule)
          dag)
      dags
  in
  let original = entries Allocator.algorithm2_per_model None in
  let improved =
    entries Improved_alloc.per_model
      (Some (R.improved_upper_bound Speedup.Kind_amdahl))
  in
  let cs = R.compare_runs ~original ~improved in
  Alcotest.(check int) "one group" 1 (List.length cs);
  let c = List.hd cs in
  Alcotest.(check int) "runs" 3 c.R.c_runs;
  Alcotest.(check (float 1e-9)) "original bound" 4.74 c.R.original_bound;
  Alcotest.(check (float 1e-9)) "improved bound" 4.55 c.R.improved_bound;
  Alcotest.(check bool) "within" true c.R.c_all_within;
  let module Json = Moldable_obs.Json in
  let json = Json.to_string (R.comparison_to_json cs) in
  Alcotest.(check bool) "json has schema key" true
    (String.length json > 0
    && String.sub json 0 (String.index json '[' + 1) <> "");
  match Json.of_string json with
  | Error e -> Alcotest.fail ("comparison JSON does not parse: " ^ e)
  | Ok j ->
    let rows =
      Option.value ~default:[]
        (Option.bind (Json.member "comparison" j) Json.to_list)
    in
    Alcotest.(check int) "one row per group" (List.length cs)
      (List.length rows);
    Alcotest.(check (option (float 0.))) "worst ratio round-trips"
      (Some c.R.improved_worst)
      (Option.bind (Json.member "improved_worst" (List.hd rows)) Json.to_float)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "improved"
    [
      ( "constants",
        [
          Alcotest.test_case "transcription coherent" `Quick
            test_bounds_coherent;
          Alcotest.test_case "strict improvement" `Quick
            test_bounds_strictly_improve;
          Alcotest.test_case "report constants match theory" `Quick
            test_report_constants_match_theory;
          Alcotest.test_case "parameters guarded" `Quick test_params_guarded;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "within improved bound" `Quick
            test_adversarial_within_improved_bound;
          Alcotest.test_case "figure 3 chains differential" `Quick
            test_figure3_chains_differential;
          Alcotest.test_case "pinned makespans" `Quick test_pinned_makespans;
        ] );
      ( "random",
        [
          qt prop_random_within_improved_bound;
          Alcotest.test_case "explain agrees with allocation" `Quick
            test_explain_agrees_with_allocation;
        ] );
      ( "provenance",
        [ Alcotest.test_case "tracer records improved decisions" `Quick
            test_tracer_provenance ] );
      ( "shadow",
        [
          Alcotest.test_case "500 seeded cells, zero unexplained" `Slow
            test_shadow_500_cells;
          Alcotest.test_case "mu and improved exclusive" `Quick
            test_shadow_rejects_mu_and_improved;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "improved policy spec" `Quick
            test_experiment_policy;
          Alcotest.test_case "comparison report" `Quick test_comparison_report;
        ] );
    ]
