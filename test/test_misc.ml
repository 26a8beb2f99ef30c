(* Small-gap tests: printers, guards and helpers not covered elsewhere. *)

open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_util

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  nl = 0 || go 0

let test_speedup_printers () =
  List.iter
    (fun (m, expect) ->
      Alcotest.(check bool) expect true (contains (Speedup.to_string m) expect))
    [
      (Speedup.Roofline { w = 2.; ptilde = 3 }, "roofline");
      (Speedup.Communication { w = 2.; c = 1. }, "comm");
      (Speedup.Amdahl { w = 2.; d = 1. }, "amdahl");
      (Speedup.General { w = 2.; ptilde = max_int; d = 1.; c = 1. }, "ptilde=inf");
      (Speedup.Power { w = 2.; alpha = 0.5 }, "power");
      (Speedup.Arbitrary { name = "f"; time = (fun _ -> 1.) }, "arbitrary(f)");
    ]

let test_task_pp () =
  let t = Task.make ~label:"x" ~id:3 (Speedup.Amdahl { w = 1.; d = 1. }) in
  Alcotest.(check bool) "label and id" true
    (contains (Format.asprintf "%a" Task.pp t) "x#3")

let test_dag_pp_stats () =
  let g =
    Dag.create
      ~tasks:
        [
          Task.make ~id:0 (Speedup.Amdahl { w = 1.; d = 1. });
          Task.make ~id:1 (Speedup.Amdahl { w = 1.; d = 1. });
        ]
      ~edges:[ (0, 1) ]
  in
  let s = Format.asprintf "%a" Dag.pp_stats g in
  Alcotest.(check bool) "counts" true
    (contains s "2 tasks" && contains s "1 edges")

let test_bounds_pp () =
  let g =
    Dag.create ~tasks:[ Task.make ~id:0 (Speedup.Amdahl { w = 10.; d = 1. }) ]
      ~edges:[]
  in
  let s = Format.asprintf "%a" Bounds.pp (Bounds.compute ~p:10 g) in
  Alcotest.(check bool) "mentions LB" true (contains s "LB=")

let test_roofline_instance_guard () =
  Alcotest.(check bool) "p < 3 rejected" true
    (try
       ignore (Moldable_adversary.Instances.roofline ~p:2);
       false
     with Invalid_argument _ -> true)

let test_rng_exponential_mean () =
  let rng = Rng.create 5150 in
  let n = 20_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential rng 3.
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f near 3" mean)
    true
    (Float.abs (mean -. 3.) < 0.15)

let test_texttab_separator () =
  let t = Texttab.create ~headers:[ "a" ] in
  Texttab.add_row t [ "1" ];
  Texttab.add_sep t;
  Texttab.add_row t [ "2" ];
  let lines = String.split_on_char '\n' (Texttab.render t) in
  let seps = List.filter (fun l -> String.length l > 0 && l.[0] = '+') lines in
  (* top, under-header, mid separator, bottom *)
  Alcotest.(check int) "4 rules" 4 (List.length seps)

let test_metrics_pp () =
  let dag =
    Dag.create ~tasks:[ Task.make ~id:0 (Speedup.Roofline { w = 1.; ptilde = 1 }) ]
      ~edges:[]
  in
  let r = Moldable_core.Online_scheduler.run ~p:1 dag in
  Alcotest.(check bool) "renders" true
    (contains
       (Format.asprintf "%a" Metrics.pp r.Sim_core.metrics)
       "mean_wait=")

let test_engine_makespan_helper () =
  let dag =
    Dag.create ~tasks:[ Task.make ~id:0 (Speedup.Roofline { w = 2.; ptilde = 1 }) ]
      ~edges:[]
  in
  let policy =
    Moldable_core.Online_scheduler.policy
      ~allocator:Moldable_core.Allocator.sequential ~p:1 ()
  in
  Alcotest.(check (float 1e-9)) "helper" 2.
    (Sim_core.run ~lean:true ~p:1 policy dag).Sim_core.makespan

let test_svg_color_deterministic () =
  Alcotest.(check bool) "same string each call" true
    (let b = Schedule.builder ~p:1 ~n:1 in
     Schedule.add b
       { Schedule.task_id = 0; start = 0.; finish = 1.; nprocs = 1; procs = [| 0 |] };
     let s = Schedule.finalize b in
     Moldable_viz.Svg.of_schedule s = Moldable_viz.Svg.of_schedule s)

let test_chains_guard () =
  Alcotest.(check bool) "ell = 5 rejected for build" true
    (try
       ignore (Moldable_adversary.Chains.build ~ell:5);
       false
     with Invalid_argument _ -> true)

let test_priority_all_distinct_names () =
  let names =
    List.map (fun (p : Moldable_core.Priority.t) -> p.Moldable_core.Priority.name)
      Moldable_core.Priority.all
  in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_schedule_busy_area_consistency () =
  (* busy_area equals the integral of the utilization steps. *)
  let rng = Rng.create 999 in
  let dag =
    Moldable_workloads.Random_dag.layered ~rng ~n_layers:3 ~width:4
      ~edge_prob:0.3 ~kind:Speedup.Kind_general ()
  in
  let r = Moldable_core.Online_scheduler.run ~p:8 dag in
  let s = r.Sim_core.schedule in
  let integral =
    List.fold_left
      (fun acc (t0, t1, busy) -> acc +. ((t1 -. t0) *. float_of_int busy))
      0. (Schedule.utilization_steps s)
  in
  Alcotest.(check (float 1e-6)) "integral matches" (Schedule.busy_area s)
    integral

let () =
  Alcotest.run "misc"
    [
      ( "printers",
        [
          Alcotest.test_case "speedup printers" `Quick test_speedup_printers;
          Alcotest.test_case "task pp" `Quick test_task_pp;
          Alcotest.test_case "dag stats" `Quick test_dag_pp_stats;
          Alcotest.test_case "bounds pp" `Quick test_bounds_pp;
          Alcotest.test_case "metrics pp" `Quick test_metrics_pp;
        ] );
      ( "guards",
        [
          Alcotest.test_case "roofline instance p<3" `Quick
            test_roofline_instance_guard;
          Alcotest.test_case "chains ell=5" `Quick test_chains_guard;
        ] );
      ( "helpers",
        [
          Alcotest.test_case "rng exponential mean" `Quick
            test_rng_exponential_mean;
          Alcotest.test_case "texttab separator" `Quick test_texttab_separator;
          Alcotest.test_case "engine makespan helper" `Quick
            test_engine_makespan_helper;
          Alcotest.test_case "svg deterministic" `Quick
            test_svg_color_deterministic;
          Alcotest.test_case "priority names unique" `Quick
            test_priority_all_distinct_names;
          Alcotest.test_case "busy area = utilization integral" `Quick
            test_schedule_busy_area_consistency;
        ] );
    ]
