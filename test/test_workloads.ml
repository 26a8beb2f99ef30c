open Moldable_model
open Moldable_graph
open Moldable_util
open Moldable_workloads

(* ---------------------------------------------------------------- Params *)

let test_random_kinds () =
  let rng = Rng.create 1 in
  List.iter
    (fun kind ->
      let m = Params.random rng kind in
      Alcotest.(check string) "kind preserved" (Speedup.kind_name kind)
        (Speedup.kind_name (Speedup.kind m));
      match Speedup.validate m with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invalid generated model: %s" e)
    [ Speedup.Kind_roofline; Speedup.Kind_communication; Speedup.Kind_amdahl;
      Speedup.Kind_general ]

let test_random_within_spec () =
  let rng = Rng.create 2 in
  let spec = { Params.default with Params.w_min = 10.; w_max = 20. } in
  for _ = 1 to 200 do
    match Params.random ~spec rng Speedup.Kind_amdahl with
    | Speedup.Amdahl { w; d } ->
      Alcotest.(check bool) "w in range" true (w >= 10. && w <= 20.);
      Alcotest.(check bool) "d fraction" true
        (d >= 10. *. spec.Params.d_frac_min && d <= 20. *. spec.Params.d_frac_max)
    | _ -> Alcotest.fail "wrong kind"
  done

let test_with_work () =
  let rng = Rng.create 3 in
  match Params.with_work rng Speedup.Kind_communication ~w:42. with
  | Speedup.Communication { w; _ } -> Alcotest.(check (float 0.)) "w" 42. w
  | _ -> Alcotest.fail "wrong kind"

let test_random_arbitrary_rejected () =
  let rng = Rng.create 4 in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Params.random rng Speedup.Kind_arbitrary);
       false
     with Invalid_argument _ -> true)

let test_deterministic_given_seed () =
  let g1 = Params.random (Rng.create 77) Speedup.Kind_general in
  let g2 = Params.random (Rng.create 77) Speedup.Kind_general in
  Alcotest.(check string) "same draw" (Speedup.to_string g1)
    (Speedup.to_string g2)

(* ------------------------------------------------------------ Random_dag *)

let test_layered_depth () =
  let rng = Rng.create 5 in
  for _ = 1 to 20 do
    let g =
      Random_dag.layered ~rng ~n_layers:5 ~width:4 ~edge_prob:0.3
        ~kind:Speedup.Kind_amdahl ()
    in
    Alcotest.(check int) "depth = n_layers" 5 (Topo.height g)
  done

let test_layered_edges_between_consecutive_layers () =
  let rng = Rng.create 6 in
  let g =
    Random_dag.layered ~rng ~n_layers:4 ~width:5 ~edge_prob:0.5
      ~kind:Speedup.Kind_roofline ()
  in
  let depth = Topo.depth g in
  List.iter
    (fun (i, j) ->
      Alcotest.(check int) "edge spans one layer" (depth.(i) + 1) depth.(j))
    (Dag.edges g)

let test_erdos_renyi_extremes () =
  let rng = Rng.create 7 in
  let empty =
    Random_dag.erdos_renyi ~rng ~n:10 ~edge_prob:0. ~kind:Speedup.Kind_amdahl ()
  in
  Alcotest.(check int) "p=0 no edges" 0 (Dag.n_edges empty);
  let full =
    Random_dag.erdos_renyi ~rng ~n:10 ~edge_prob:1. ~kind:Speedup.Kind_amdahl ()
  in
  Alcotest.(check int) "p=1 complete" 45 (Dag.n_edges full)

let test_independent () =
  let rng = Rng.create 8 in
  let g = Random_dag.independent ~rng ~n:12 ~kind:Speedup.Kind_general () in
  Alcotest.(check int) "n tasks" 12 (Dag.n g);
  Alcotest.(check int) "no edges" 0 (Dag.n_edges g)

let prop_layered_always_acyclic_and_sized =
  QCheck.Test.make ~name:"layered generator well-formed" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n_layers = 1 + Rng.int rng 6 in
      let g =
        Random_dag.layered ~rng ~n_layers ~width:(1 + Rng.int rng 6)
          ~edge_prob:(Rng.float rng 1.) ~kind:Speedup.Kind_general ()
      in
      Topo.height g = n_layers && Dag.n g >= n_layers)

(* ------------------------------------------------------------ Structured *)

let test_chain_shape () =
  let rng = Rng.create 9 in
  let g = Structured.chain ~rng ~n:6 ~kind:Speedup.Kind_amdahl () in
  Alcotest.(check int) "height" 6 (Topo.height g);
  Alcotest.(check int) "edges" 5 (Dag.n_edges g);
  Alcotest.(check (list int)) "one source" [ 0 ] (Dag.sources g);
  Alcotest.(check (list int)) "one sink" [ 5 ] (Dag.sinks g)

let test_fork_join_shape () =
  let rng = Rng.create 10 in
  let g =
    Structured.fork_join ~rng ~stages:2 ~width:3 ~kind:Speedup.Kind_amdahl ()
  in
  (* 2 stages * (1 fork + 3 branches) + final join = 9 tasks. *)
  Alcotest.(check int) "tasks" 9 (Dag.n g);
  Alcotest.(check (list int)) "single source" [ 0 ] (Dag.sources g);
  Alcotest.(check (list int)) "single sink" [ 8 ] (Dag.sinks g);
  Alcotest.(check int) "height: fork,b,join,b,join" 5 (Topo.height g)

let test_diamond_shape () =
  (* One fork-join stage is the diamond: source -> width tasks -> sink. *)
  let rng = Rng.create 13 in
  let g =
    Structured.fork_join ~rng ~stages:1 ~width:4 ~kind:Speedup.Kind_general ()
  in
  Alcotest.(check int) "tasks" 6 (Dag.n g);
  Alcotest.(check (list int)) "single source" [ 0 ] (Dag.sources g);
  Alcotest.(check (list int)) "single sink" [ 5 ] (Dag.sinks g);
  Alcotest.(check int) "height" 3 (Topo.height g);
  Alcotest.(check int) "edges" 8 (Dag.n_edges g)

(* ---------------------------------------------------------------- Linalg *)

let test_cholesky_sizes () =
  let rng = Rng.create 14 in
  let g = Linalg.cholesky ~rng ~tiles:1 ~kind:Speedup.Kind_amdahl () in
  Alcotest.(check int) "1 tile = potrf only" 1 (Dag.n g);
  let g3 = Linalg.cholesky ~rng ~tiles:3 ~kind:Speedup.Kind_amdahl () in
  (* potrf: 3; trsm: 3; syrk: 3; gemm: 1 -> 10 tasks. *)
  Alcotest.(check int) "3 tiles" 10 (Dag.n g3)

let test_cholesky_critical_structure () =
  let rng = Rng.create 15 in
  let g = Linalg.cholesky ~rng ~tiles:4 ~kind:Speedup.Kind_amdahl () in
  (* potrf(0) is the unique source. *)
  Alcotest.(check int) "single source" 1 (List.length (Dag.sources g));
  (* Height of tiled Cholesky: potrf/trsm/syrk chain = 3(t-1)+1. *)
  Alcotest.(check int) "height" 10 (Topo.height g)

let test_lu_sizes () =
  let rng = Rng.create 16 in
  let g = Linalg.lu ~rng ~tiles:1 ~kind:Speedup.Kind_general () in
  Alcotest.(check int) "1 tile = getrf only" 1 (Dag.n g);
  let g2 = Linalg.lu ~rng ~tiles:2 ~kind:Speedup.Kind_general () in
  (* getrf: 2; trsm row: 1; trsm col: 1; update: 1 -> 5. *)
  Alcotest.(check int) "2 tiles" 5 (Dag.n g2)

let test_lu_single_source () =
  let rng = Rng.create 17 in
  let g = Linalg.lu ~rng ~tiles:4 ~kind:Speedup.Kind_amdahl () in
  Alcotest.(check int) "getrf(0) unique source" 1 (List.length (Dag.sources g))

let test_linalg_work_scales () =
  (* GEMM work must be 6x POTRF work (2 b^3 vs b^3/3) regardless of draws of
     the other parameters. *)
  let rng = Rng.create 18 in
  let g = Linalg.cholesky ~rng ~tiles:3 ~kind:Speedup.Kind_amdahl () in
  let work t =
    match t.Task.speedup with
    | Speedup.Amdahl { w; _ } -> w
    | _ -> Alcotest.fail "expected amdahl"
  in
  let find prefix =
    let found = ref None in
    Array.iter
      (fun (t : Task.t) ->
        if String.length t.Task.label >= String.length prefix
           && String.sub t.Task.label 0 (String.length prefix) = prefix
           && !found = None
        then found := Some t)
      (Dag.tasks g);
    match !found with Some t -> t | None -> Alcotest.fail ("no " ^ prefix)
  in
  Alcotest.(check (float 1e-9)) "potrf w" (100. /. 3.) (work (find "potrf"));
  Alcotest.(check (float 1e-9)) "gemm w" 200. (work (find "gemm"))

(* ------------------------------------------------------------- Scientific *)

let test_montage_shape () =
  let rng = Rng.create 19 in
  let g = Scientific.montage ~rng ~width:4 ~kind:Speedup.Kind_amdahl () in
  (* 4 project + 3 diff + concat + bgmodel + 4 background + imgtbl + add +
     shrink = 16. *)
  Alcotest.(check int) "tasks" 16 (Dag.n g);
  Alcotest.(check int) "sources = projections" 4 (List.length (Dag.sources g));
  Alcotest.(check int) "single sink" 1 (List.length (Dag.sinks g))

let test_epigenomics_shape () =
  let rng = Rng.create 20 in
  let g =
    Scientific.epigenomics ~rng ~lanes:2 ~fanout:3 ~kind:Speedup.Kind_amdahl ()
  in
  (* Per lane: 1 split + 3*4 + 1 merge = 14; 2 lanes = 28; + global merge +
     index + pileup = 31. *)
  Alcotest.(check int) "tasks" 31 (Dag.n g);
  Alcotest.(check int) "sources = lane splits" 2 (List.length (Dag.sources g));
  (* split -> filter -> convert -> bfq -> map -> merge -> global -> index ->
     pileup: height 9. *)
  Alcotest.(check int) "height" 9 (Topo.height g)

let test_cybershake_shape () =
  let rng = Rng.create 22 in
  let g =
    Scientific.cybershake ~rng ~sites:3 ~variations:4 ~kind:Speedup.Kind_amdahl ()
  in
  (* 2 SGT + 12 synth + 12 peak + 1 zip = 27. *)
  Alcotest.(check int) "tasks" 27 (Dag.n g);
  Alcotest.(check int) "two sources" 2 (List.length (Dag.sources g));
  Alcotest.(check int) "single sink" 1 (List.length (Dag.sinks g));
  (* sgt -> synth -> peak -> zip: height 4. *)
  Alcotest.(check int) "height" 4 (Topo.height g)

let test_ligo_shape () =
  let rng = Rng.create 23 in
  let g =
    Scientific.ligo ~rng ~blocks:2 ~per_block:3 ~kind:Speedup.Kind_general ()
  in
  (* Per block: 1 tmplt + 3 inspiral + 1 thinca = 5; x2 = 10; + trigbank +
     2 inspiral2 + final = 14. *)
  Alcotest.(check int) "tasks" 14 (Dag.n g);
  Alcotest.(check int) "sources = template banks" 2
    (List.length (Dag.sources g));
  (* tmplt,inspiral,thinca,trigbank,inspiral2,final: height 6. *)
  Alcotest.(check int) "height" 6 (Topo.height g)

let test_scientific_guards () =
  let rng = Rng.create 21 in
  Alcotest.(check bool) "montage width 1" true
    (try
       ignore (Scientific.montage ~rng ~width:1 ~kind:Speedup.Kind_amdahl ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------- SWF *)

let test_swf_parse_basic () =
  let text =
    "; a comment header\n\
     ; another\n\
     1 0.0 5 100.0 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1\n\
     2 10.5 0 50.0 8 -1 -1 8 50 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
  in
  match Swf.parse text with
  | Error e -> Alcotest.fail e
  | Ok { Swf.jobs; skipped_lines } ->
    Alcotest.(check int) "two jobs" 2 (List.length jobs);
    Alcotest.(check int) "nothing skipped" 0 skipped_lines;
    let j = List.hd jobs in
    Alcotest.(check int) "id" 1 j.Swf.id;
    Alcotest.(check (float 1e-9)) "runtime" 100. j.Swf.run_time;
    Alcotest.(check int) "procs" 4 j.Swf.procs

let test_swf_skips_cancelled () =
  (* run_time <= 0 means cancelled/failed: skipped and counted. *)
  let text = "1 0 0 -1 4 -1 -1 4 -1 -1 0 -1 -1 -1 -1 -1 -1 -1\n" in
  match Swf.parse text with
  | Error e -> Alcotest.fail e
  | Ok { Swf.jobs; skipped_lines } ->
    Alcotest.(check int) "no usable jobs" 0 (List.length jobs);
    Alcotest.(check int) "counted" 1 skipped_lines

let test_swf_counts_malformed () =
  (* Malformed records are skipped and counted, not fatal: real archive
     logs carry the occasional truncated line. *)
  let text =
    "hello world\n\
     1 2 3\n\
     1 0.0 5 100.0 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1\n\
     x y z w v\n"
  in
  match Swf.parse text with
  | Error e -> Alcotest.fail e
  | Ok { Swf.jobs; skipped_lines } ->
    Alcotest.(check int) "one usable job" 1 (List.length jobs);
    Alcotest.(check int) "three skipped" 3 skipped_lines

let test_swf_rejects_corrupt_negatives () =
  (* -1 is the SWF "unknown" sentinel; any other negative run time or
     processor count is corruption and must fail, naming the line. *)
  let neg_run = "7 0 0 -5 4 -1 -1 4 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n" in
  let contains_sub hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  (match Swf.parse neg_run with
  | Ok _ -> Alcotest.fail "negative run time accepted"
  | Error e ->
    Alcotest.(check bool) "names line 1" true (contains_sub e "line 1"));
  let neg_procs = "7 0 0 10 -3 -1 -1 4 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n" in
  (match Swf.parse neg_procs with
  | Ok _ -> Alcotest.fail "negative processor count accepted"
  | Error e ->
    Alcotest.(check bool) "names processor count" true
      (contains_sub e "processor count"));
  (* The sentinel itself stays a counted skip. *)
  match Swf.parse "7 0 0 -1 -1 -1 -1 4 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n" with
  | Ok { Swf.jobs = []; skipped_lines = 1 } -> ()
  | Ok _ -> Alcotest.fail "sentinel record not skip-counted"
  | Error e -> Alcotest.fail e

(* A minimal valid SWF document (unknown fields as [-1]). *)
let to_swf_string jobs =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "; fields: id submit wait run procs (rest = -1)\n";
  List.iter
    (fun j ->
      Printf.bprintf buf
        "%d %.2f -1 %.2f %d -1 -1 %d %.2f -1 1 -1 -1 -1 -1 -1 -1 -1\n"
        j.Swf.id j.Swf.submit j.Swf.run_time j.Swf.procs j.Swf.procs
        j.Swf.run_time)
    jobs;
  Buffer.contents buf

let test_swf_roundtrip () =
  let rng = Rng.create 30 in
  let jobs = Swf.synthetic ~rng ~n:20 ~mean_interarrival:60. ~max_procs:64 in
  match Swf.parse (to_swf_string jobs) with
  | Error e -> Alcotest.fail e
  | Ok { Swf.jobs = jobs'; skipped_lines } ->
    Alcotest.(check int) "count preserved" 20 (List.length jobs');
    Alcotest.(check int) "nothing skipped" 0 skipped_lines;
    List.iter2
      (fun a b ->
        Alcotest.(check int) "id" a.Swf.id b.Swf.id;
        Alcotest.(check int) "procs" a.Swf.procs b.Swf.procs)
      jobs jobs'

let test_swf_synthetic_shape () =
  let rng = Rng.create 31 in
  let jobs = Swf.synthetic ~rng ~n:100 ~mean_interarrival:10. ~max_procs:128 in
  let sorted = ref true and prev = ref neg_infinity in
  List.iter
    (fun j ->
      if j.Swf.submit < !prev then sorted := false;
      prev := j.Swf.submit;
      Alcotest.(check bool) "procs in range" true
        (j.Swf.procs >= 1 && j.Swf.procs <= 128);
      Alcotest.(check bool) "runtime positive" true (j.Swf.run_time > 0.))
    jobs;
  Alcotest.(check bool) "arrivals sorted" true !sorted

(* Regression: the power-of-two width draw used float log2, whose quotient
   evaluates to 2.999... at exact powers of two; truncation then excluded
   the full-machine width from the distribution entirely.  With the exact
   integer log2 every power of two up to max_procs, including max_procs
   itself, must be reachable. *)
let test_swf_synthetic_full_width_reachable () =
  List.iter
    (fun exp ->
      let max_procs = 1 lsl exp in
      let rng = Rng.create (97 + exp) in
      let jobs =
        Swf.synthetic ~rng ~n:2000 ~mean_interarrival:1. ~max_procs
      in
      let hit_full = List.exists (fun j -> j.Swf.procs = max_procs) jobs in
      let in_range = List.for_all (fun j -> j.Swf.procs <= max_procs) jobs in
      Alcotest.(check bool)
        (Printf.sprintf "width max_procs=2^%d reachable" exp)
        true hit_full;
      Alcotest.(check bool)
        (Printf.sprintf "widths bounded at 2^%d" exp)
        true in_range)
    [ 1; 2; 3; 6; 10; 16; 20 ]

let test_swf_to_workload_roofline () =
  let rng = Rng.create 32 in
  let jobs = Swf.synthetic ~rng ~n:10 ~mean_interarrival:5. ~max_procs:32 in
  let dag, releases = Swf.to_workload ~rng jobs in
  Alcotest.(check int) "10 tasks" 10 (Dag.n dag);
  Alcotest.(check int) "no edges" 0 (Dag.n_edges dag);
  Alcotest.(check int) "releases" 10 (Array.length releases);
  Alcotest.(check (float 1e-9)) "first release at 0" 0.
    (Array.fold_left Float.min infinity releases);
  (* The model reproduces the observed point: t(q0) = run_time. *)
  List.iteri
    (fun idx j ->
      Alcotest.(check (float 1e-6)) "observed point" j.Swf.run_time
        (Task.time (Dag.task dag idx) j.Swf.procs))
    jobs

let test_swf_to_workload_amdahl_point () =
  let rng = Rng.create 33 in
  let jobs = [ { Swf.id = 1; submit = 0.; run_time = 100.; procs = 8 } ] in
  let dag, _ = Swf.to_workload ~model:(`Amdahl (0.05, 0.2)) ~rng jobs in
  Alcotest.(check (float 1e-6)) "t(8) = 100" 100. (Task.time (Dag.task dag 0) 8)

let test_swf_replay_schedules () =
  let rng = Rng.create 34 in
  let jobs = Swf.synthetic ~rng ~n:30 ~mean_interarrival:20. ~max_procs:32 in
  let dag, releases = Swf.to_workload ~rng jobs in
  let p = 64 in
  let r =
    Moldable_sim.Sim_core.run ~release_times:releases ~p
      (Moldable_core.Online_scheduler.policy
         ~allocator:Moldable_core.Allocator.algorithm2_per_model ~p ())
      dag
  in
  Moldable_sim.Validate.check_exn ~dag r.Moldable_sim.Sim_core.schedule

let prop_all_generators_schedulable =
  QCheck.Test.make ~name:"generated graphs schedule and validate" ~count:30
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let kind = Speedup.Kind_general in
      let graphs =
        [
          Random_dag.layered ~rng ~n_layers:3 ~width:4 ~edge_prob:0.4 ~kind ();
          Structured.fork_join ~rng ~stages:2 ~width:3 ~kind ();
          Linalg.cholesky ~rng ~tiles:3 ~kind ();
          Linalg.lu ~rng ~tiles:3 ~kind ();
          Scientific.montage ~rng ~width:3 ~kind ();
          Scientific.epigenomics ~rng ~lanes:2 ~fanout:2 ~kind ();
          Scientific.cybershake ~rng ~sites:2 ~variations:3 ~kind ();
          Scientific.ligo ~rng ~blocks:2 ~per_block:3 ~kind ();
        ]
      in
      List.for_all
        (fun dag ->
          let r = Moldable_core.Online_scheduler.run ~p:16 dag in
          Result.is_ok
            (Moldable_sim.Validate.check ~dag r.Moldable_sim.Sim_core.schedule))
        graphs)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "workloads"
    [
      ( "params",
        [
          Alcotest.test_case "kinds" `Quick test_random_kinds;
          Alcotest.test_case "within spec" `Quick test_random_within_spec;
          Alcotest.test_case "with_work" `Quick test_with_work;
          Alcotest.test_case "arbitrary rejected" `Quick
            test_random_arbitrary_rejected;
          Alcotest.test_case "deterministic" `Quick test_deterministic_given_seed;
        ] );
      ( "random_dag",
        [
          Alcotest.test_case "layered depth" `Quick test_layered_depth;
          Alcotest.test_case "layered edge span" `Quick
            test_layered_edges_between_consecutive_layers;
          Alcotest.test_case "erdos-renyi extremes" `Quick
            test_erdos_renyi_extremes;
          Alcotest.test_case "independent" `Quick test_independent;
          qt prop_layered_always_acyclic_and_sized;
        ] );
      ( "structured",
        [
          Alcotest.test_case "chain" `Quick test_chain_shape;
          Alcotest.test_case "fork-join" `Quick test_fork_join_shape;
          Alcotest.test_case "diamond" `Quick test_diamond_shape;
        ] );
      ( "linalg",
        [
          Alcotest.test_case "cholesky sizes" `Quick test_cholesky_sizes;
          Alcotest.test_case "cholesky structure" `Quick
            test_cholesky_critical_structure;
          Alcotest.test_case "lu sizes" `Quick test_lu_sizes;
          Alcotest.test_case "lu source" `Quick test_lu_single_source;
          Alcotest.test_case "work scales" `Quick test_linalg_work_scales;
        ] );
      ( "scientific",
        [
          Alcotest.test_case "montage" `Quick test_montage_shape;
          Alcotest.test_case "epigenomics" `Quick test_epigenomics_shape;
          Alcotest.test_case "cybershake" `Quick test_cybershake_shape;
          Alcotest.test_case "ligo" `Quick test_ligo_shape;
          Alcotest.test_case "guards" `Quick test_scientific_guards;
          qt prop_all_generators_schedulable;
        ] );
      ( "swf",
        [
          Alcotest.test_case "parse basic" `Quick test_swf_parse_basic;
          Alcotest.test_case "skips cancelled" `Quick test_swf_skips_cancelled;
          Alcotest.test_case "counts malformed" `Quick test_swf_counts_malformed;
          Alcotest.test_case "rejects corrupt negatives" `Quick
            test_swf_rejects_corrupt_negatives;
          Alcotest.test_case "roundtrip" `Quick test_swf_roundtrip;
          Alcotest.test_case "synthetic shape" `Quick test_swf_synthetic_shape;
          Alcotest.test_case "synthetic full width reachable" `Quick
            test_swf_synthetic_full_width_reachable;
          Alcotest.test_case "to_workload roofline" `Quick
            test_swf_to_workload_roofline;
          Alcotest.test_case "amdahl observed point" `Quick
            test_swf_to_workload_amdahl_point;
          Alcotest.test_case "replay schedules" `Quick test_swf_replay_schedules;
        ] );
    ]
