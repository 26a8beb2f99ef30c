(* Benchmark harness: regenerates every table and figure of the paper
   (Benoit, Perotin, Robert, Sun: "Online Scheduling of Moldable Task Graphs
   under Common Speedup Models", ICPP 2022) and runs Bechamel
   micro-benchmarks of the implementation.

   Run with: dune exec bench/main.exe [-- FLAGS]
     --jobs N         worker domains for the parallel sweep sections
                      (default 1; results are identical at any job count)
     --artifacts DIR  output directory (default paper_artifacts)
     --only SECTION   run only the named section (repeatable)
   Vector/graph artifacts (DOT, SVG) and BENCH_scaling.json are written to
   the artifact directory.  A section whose acceptance gate fails ends the
   run with exit code 1; a usage error exits 2. *)

open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_util
open Moldable_core
open Moldable_theory
open Moldable_adversary
open Moldable_analysis
module Json = Moldable_obs.Json

(* ------------------------------------------------------------- arguments *)

let jobs_flag = ref 1
let artifacts_flag = ref "paper_artifacts"
let only_flag : string list ref = ref []

(* [names] are the sections of the table at the bottom of this file; an
   --only naming anything else is a usage error, like a bad --jobs. *)
let parse_args names =
  let specs =
    [
      ( "--jobs",
        Arg.Set_int jobs_flag,
        "N  Worker domains for parallel sweeps (default 1; results are \
         identical at any job count)" );
      ( "--artifacts",
        Arg.Set_string artifacts_flag,
        "DIR  Artifact output directory (default paper_artifacts)" );
      ( "--only",
        Arg.String (fun s -> only_flag := s :: !only_flag),
        "SECTION  Run only this section (repeatable); one of: "
        ^ String.concat ", " names );
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "bench/main.exe [--jobs N] [--artifacts DIR] [--only SECTION]";
  if !jobs_flag < 1 then begin
    prerr_endline "--jobs must be >= 1";
    exit 2
  end;
  match List.filter (fun s -> not (List.mem s names)) !only_flag with
  | [] -> ()
  | unknown ->
    Printf.eprintf "unknown section(s) %s; valid sections: %s\n"
      (String.concat ", " (List.rev unknown))
      (String.concat ", " names);
    exit 2

(* Wall-clock time of [f]: seconds per call averaged over [reps]
   back-to-back calls, returned with the last call's result. *)
let time ?(reps = 1) f =
  let t0 = Clock.now () in
  let r = ref (f ()) in
  for _ = 2 to reps do
    r := f ()
  done;
  (!r, (Clock.now () -. t0) /. float_of_int reps)

(* Prints a section's acceptance verdict: [Ok msg] passes, [Error msg]
   fails the bench with exit code 1. *)
let gate = function
  | Ok msg -> Printf.printf "\nAcceptance: %s\n" msg
  | Error msg ->
    Printf.printf "\nACCEPTANCE FAILED: %s\n" msg;
    exit 1

(* Machine-readable perf trajectory: every section records its wall-clock
   time, and the hot-path scalability section additionally records its
   per-configuration timings; both are written to
   paper_artifacts/BENCH_scaling.json at the end of the run so regressions
   are diffable across PRs. *)
let section_timings : (string * float) list ref = ref []

(* Rows and probes recorded into BENCH_scaling.json, newest first.  The key
   names the document field a value lands in: "parallel", "alloc_lean" and
   "scaling" collect every row in order, "telemetry" and "service" keep the
   latest probe. *)
let scaling_records : (string * Json.t) list ref = ref []

let record key v = scaling_records := (key, v) :: !scaling_records

(* Runs [compute] once with the sequential pool and — when [pool] is
   parallel — once more with [pool], wall-clocks both, and checks with
   [equal] that the two results are identical (the determinism guarantee of
   the seed-splitting scheme; a mismatch aborts the bench).  Records the
   sequential-vs-parallel row and returns the result and both timings. *)
let compare_seq_par ~name ~cells ~equal pool compute =
  let seq, seq_s = time (fun () -> compute Pool.sequential) in
  let result, par_s =
    if Pool.jobs pool <= 1 then (seq, seq_s)
    else begin
      let par, par_s = time (fun () -> compute pool) in
      if not (equal seq par) then
        failwith
          (Printf.sprintf
             "%s: parallel result differs from sequential (jobs=%d)" name
             (Pool.jobs pool));
      (par, par_s)
    end
  in
  let speedup = seq_s /. Float.max 1e-9 par_s in
  record "parallel"
    (Json.Obj
       [
         ("section", Json.Str name); ("jobs", Json.int (Pool.jobs pool));
         ("cells", Json.int cells); ("seq_s", Json.Num seq_s);
         ("par_s", Json.Num par_s); ("speedup", Json.Num speedup);
       ]);
  Printf.printf
    "  [%s] %d cells: sequential %.3f s, jobs=%d %.3f s (%.2fx)\n" name cells
    seq_s (Pool.jobs pool) par_s speedup;
  (result, seq_s, par_s)

let write_artifact name content =
  let dir = !artifacts_flag in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir name in
  (* Crash-safe: write to a temp file in the same directory and rename into
     place, so an interrupted run never leaves a truncated artifact. *)
  let tmp = Filename.temp_file ~temp_dir:dir ("." ^ name) ".tmp" in
  let oc = open_out tmp in
  (match output_string oc content with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  Sys.rename tmp path;
  Printf.printf "  [artifact] %s/%s\n" dir name

let write_json name json = write_artifact name (Json.to_string json ^ "\n")

(* ------------------------------------------------- Table 1: upper bounds *)

let table1_upper () =
  let tab =
    Texttab.create
      ~headers:[ "model"; "mu*"; "x*"; "ratio (ours)"; "paper"; "match" ]
  in
  List.iter
    (fun (r : Model_bounds.row) ->
      Texttab.add_row tab
        [
          Model_bounds.family_name r.Model_bounds.family;
          Printf.sprintf "%.4f" r.Model_bounds.mu_star;
          (match r.Model_bounds.family with
          | Model_bounds.Roofline -> "-"
          | _ -> Printf.sprintf "%.4f" r.Model_bounds.x_star_value);
          Printf.sprintf "%.4f" r.Model_bounds.ratio;
          Printf.sprintf "%.2f" r.Model_bounds.paper_ratio;
          (if
             r.Model_bounds.ratio <= r.Model_bounds.paper_ratio +. 5e-3
             && r.Model_bounds.ratio >= r.Model_bounds.paper_ratio -. 0.02
           then "yes"
           else "NO");
        ])
    (Model_bounds.table1_upper ());
  Texttab.print tab

(* ------------------------------------------------- Table 1: lower bounds *)

let table1_lower () =
  let tab =
    Texttab.create ~headers:[ "model"; "mu"; "bound (ours)"; "paper"; "match" ]
  in
  List.iter
    (fun (r : Lower_bounds.row) ->
      Texttab.add_row tab
        [
          Model_bounds.family_name r.Lower_bounds.family;
          Printf.sprintf "%.4f" r.Lower_bounds.mu;
          Printf.sprintf "%.4f" r.Lower_bounds.bound;
          Printf.sprintf "%.2f" r.Lower_bounds.paper_bound;
          (if Float.abs (r.Lower_bounds.bound -. r.Lower_bounds.paper_bound)
              < 0.02
           then "yes"
           else "NO");
        ])
    (Lower_bounds.table1_lower ());
  Texttab.print tab

(* ----------------------------------- Table 1: lower bounds, by simulation *)

let table1_measured pool () =
  let tab =
    Texttab.create
      ~headers:
        [ "instance"; "P"; "tasks"; "T(alg1)"; "T(offline)"; "ratio"; "limit" ]
  in
  (* Instance construction is cheap and stays on the caller; only the
     adversarial-family runs fan out.  Groups are separated in the table. *)
  let groups =
    [
      List.map (fun p -> Instances.roofline ~p) [ 100; 1000; 10000 ];
      List.map (fun p -> Instances.communication ~p) [ 100; 500; 2000 ];
      List.map (fun k -> Instances.amdahl ~k) [ 10; 30; 100 ];
      List.map (fun k -> Instances.general ~k) [ 10; 30; 100 ];
    ]
  in
  let instances = List.concat groups in
  let makespans, _, _ =
    compare_seq_par ~name:"adversarial_families"
      ~cells:(List.length instances)
      ~equal:(fun a b -> List.for_all2 Float.equal a b)
      pool
      (fun pool ->
        Pool.map_list ~chunk:1 pool
          (fun inst ->
            Schedule.makespan (Instances.run_online inst).Sim_core.schedule)
          instances)
  in
  let remaining = ref makespans in
  List.iteri
    (fun gi group ->
      if gi > 0 then Texttab.add_sep tab;
      List.iter
        (fun inst ->
          let t = List.hd !remaining in
          remaining := List.tl !remaining;
          (* The simulation must land exactly on the proof's prediction. *)
          assert (Fcmp.approx ~eps:1e-6 t inst.Instances.predicted_online);
          Texttab.add_row tab
            [
              inst.Instances.name;
              string_of_int inst.Instances.p;
              string_of_int (Dag.n inst.Instances.dag);
              Printf.sprintf "%.2f" t;
              Printf.sprintf "%.2f" inst.Instances.alternative_makespan;
              Printf.sprintf "%.4f" (t /. inst.Instances.alternative_makespan);
              Printf.sprintf "%.4f" inst.Instances.limit_ratio;
            ])
        group)
    groups;
  Texttab.print tab

(* ------------------------------------ Convergence plots (measured ratios) *)

let convergence_plots pool () =
  (* One cell per (instance, abscissa); build the instance list on the
     caller, fan the runs out, then slice the flat ratio list back into the
     three curves. *)
  let specs =
    List.map
      (fun p -> (float_of_int p, Instances.communication ~p))
      [ 20; 40; 80; 160; 320; 640; 1280 ]
    @ List.map
        (fun k -> (float_of_int (k * k), Instances.amdahl ~k))
        [ 6; 9; 14; 20; 30; 45; 70 ]
    @ List.map
        (fun k -> (float_of_int (k * k), Instances.general ~k))
        [ 7; 10; 15; 22; 33; 50; 70 ]
  in
  let ratios, _, _ =
    compare_seq_par ~name:"convergence_plots" ~cells:(List.length specs)
      ~equal:(fun a b -> List.for_all2 Float.equal a b)
      pool
      (fun pool ->
        Pool.map_list ~chunk:1 pool
          (fun (_, inst) ->
            Schedule.makespan (Instances.run_online inst).Sim_core.schedule
            /. inst.Instances.alternative_makespan)
          specs)
  in
  let points = List.map2 (fun (x, _) r -> (x, r)) specs ratios in
  let rec take n = function
    | [] -> []
    | x :: tl -> if n = 0 then [] else x :: take (n - 1) tl
  in
  let rec drop n xs =
    if n = 0 then xs else match xs with [] -> [] | _ :: tl -> drop (n - 1) tl
  in
  let comm_points = take 7 points in
  let amdahl_points = take 7 (drop 7 points) in
  let general_points = drop 14 points in
  let limit name inst = (inst.Instances.limit_ratio, name) in
  print_string
    (Moldable_viz.Ascii_plot.render ~x_log:true ~xlabel:"P" ~ylabel:"T / T_offline"
       ~hlines:
         [
           limit "Thm 6 limit" (Instances.communication ~p:20);
           limit "Thm 7 limit" (Instances.amdahl ~k:6);
           limit "Thm 8 limit" (Instances.general ~k:7);
         ]
       [
         { Moldable_viz.Ascii_plot.label = "communication"; glyph = 'c';
           points = comm_points };
         { Moldable_viz.Ascii_plot.label = "amdahl"; glyph = 'a';
           points = amdahl_points };
         { Moldable_viz.Ascii_plot.label = "general"; glyph = 'g';
           points = general_points };
       ])

(* ---------------------------------------------------------------- Table 2 *)

let table2 () =
  let tab = Texttab.create ~headers:[ "problem instance"; "offline"; "online" ] in
  Texttab.add_row tab
    [
      "independent moldable tasks";
      "Turek+ '92; Jansen '12; Jansen&Land '18";
      "Dutton&Mao '07; Havill&Mao '08; Kell&Havill '15; Ye+ '18";
    ];
  Texttab.add_row tab
    [
      "moldable task graphs";
      "Wang&Cheng '92; Lepere+ '01; Jansen&Zhang '06; Chen&Chu '13";
      "Feldmann+ '98 (roofline); THIS PAPER (comm/Amdahl/general)";
    ];
  Texttab.print tab

(* ---------------------------------------------------------------- Figure 1 *)

let figure1 () =
  let tab =
    Texttab.create ~headers:[ "theorem"; "P"; "X"; "Y"; "tasks"; "edges"; "height" ]
  in
  let describe name inst =
    let dag = inst.Instances.dag in
    (* Recover X and Y from the structure: Y = height - 1 (A-chain plus C). *)
    let y = Moldable_graph.Topo.height dag - 1 in
    let x = if y = 0 then 0 else (Dag.n dag - 1 - y) / y in
    Texttab.add_row tab
      [
        name;
        string_of_int inst.Instances.p;
        string_of_int x;
        string_of_int y;
        string_of_int (Dag.n dag);
        string_of_int (Dag.n_edges dag);
        string_of_int (Moldable_graph.Topo.height dag);
      ]
  in
  describe "Thm 6 (comm), P=30" (Instances.communication ~p:30);
  describe "Thm 7 (amdahl), K=8" (Instances.amdahl ~k:8);
  describe "Thm 8 (general), K=8" (Instances.general ~k:8);
  Texttab.print tab;
  let small = Instances.communication ~p:12 in
  write_artifact "figure1_generic_graph.dot"
    (Moldable_viz.Dot.of_dag ~name:"figure1"
       ~show_speedup:false small.Instances.dag)

(* ---------------------------------------------------------------- Figure 2 *)

let figure2 () =
  let inst = Instances.communication ~p:16 in
  let online = Instances.run_online inst in
  let label i = (Dag.task inst.Instances.dag i).Task.label in
  Printf.printf "(a) Algorithm 1 (makespan %.2f):\n%s\n"
    (Schedule.makespan online.Sim_core.schedule)
    (Moldable_viz.Gantt.render ~width:72 ~max_rows:16 ~legend:false ~label
       online.Sim_core.schedule);
  Printf.printf "(b) clairvoyant alternative (makespan %.2f):\n%s\n"
    inst.Instances.alternative_makespan
    (Moldable_viz.Gantt.render ~width:72 ~max_rows:16 ~legend:false ~label
       inst.Instances.alternative);
  write_artifact "figure2a_online.svg"
    (Moldable_viz.Svg.of_schedule ~label online.Sim_core.schedule);
  write_artifact "figure2b_offline.svg"
    (Moldable_viz.Svg.of_schedule ~label inst.Instances.alternative)

(* ---------------------------------------------------------------- Figure 3 *)

let figure3 () =
  let inst = Chains.build ~ell:2 in
  let tab = Texttab.create ~headers:[ "group"; "chains"; "tasks/chain" ] in
  for g = 1 to inst.Chains.k do
    let n =
      Array.fold_left
        (fun acc x -> if x = g then acc + 1 else acc)
        0 inst.Chains.group
    in
    Texttab.add_row tab [ string_of_int g; string_of_int n; string_of_int g ]
  done;
  Texttab.print tab;
  Printf.printf "total: %d chains, %d tasks, P = %d\n"
    (Array.length inst.Chains.chains)
    (Dag.n inst.Chains.dag) inst.Chains.p;
  write_artifact "figure3_chains.dot"
    (Moldable_viz.Dot.of_dag ~name:"figure3" inst.Chains.dag)

(* ---------------------------------------------------------------- Figure 4 *)

let figure4 () =
  let inst = Chains.build ~ell:2 in
  let off = Chain_adversary.offline_schedule inst in
  Validate.check_exn ~dag:inst.Chains.dag off;
  Printf.printf "(a) offline schedule: makespan = %.6f (paper: 1.0)\n\n%s\n"
    (Schedule.makespan off)
    (Moldable_viz.Gantt.render ~width:72 ~max_rows:16 ~legend:false off);
  let o = Chain_adversary.equal_split ~ell:2 in
  let eq = Chain_adversary.equal_split_schedule inst in
  Validate.check_exn ~dag:inst.Chains.dag eq;
  let paper = [| 0.5; 5. /. 6.; 1.07; 1.23 |] in
  let tab = Texttab.create ~headers:[ "breakpoint"; "ours"; "paper" ] in
  Array.iteri
    (fun i t ->
      Texttab.add_row tab
        [
          Printf.sprintf "t%d" (i + 1);
          Printf.sprintf "%.4f" t;
          Printf.sprintf "%.2f" paper.(i);
        ])
    o.Chain_adversary.breakpoints;
  Texttab.print tab;
  Printf.printf "\n(b) equal-allocation schedule (makespan %.4f):\n\n%s\n"
    (Schedule.makespan eq)
    (Moldable_viz.Gantt.render ~width:72 ~max_rows:16 ~legend:false eq);
  write_artifact "figure4a_offline.svg" (Moldable_viz.Svg.of_schedule off);
  write_artifact "figure4b_online.svg" (Moldable_viz.Svg.of_schedule eq)

(* ------------------------------------------------------ Theorem 9 scaling *)

let theorem9 () =
  let tab =
    Texttab.create
      ~headers:
        [
          "l"; "K = D"; "chains"; "ln K - ln l - 1/l"; "Lemma 10 sum";
          "equal-split"; "Algorithm 1";
        ]
  in
  List.iter
    (fun ell ->
      let params = Arbitrary_lb.params ~ell in
      let eq = Chain_adversary.equal_split ~ell in
      let alg1 =
        if ell <= 3 then begin
          let mu = Mu.default Speedup.Kind_general in
          let alloc =
            Chain_adversary.algorithm2_alloc ~mu ~p:params.Arbitrary_lb.p
          in
          Printf.sprintf "%.3f"
            (Chain_adversary.list_scheduling ~alloc ~ell)
              .Chain_adversary.makespan
        end
        else "-"
      in
      Texttab.add_row tab
        [
          string_of_int ell;
          string_of_int params.Arbitrary_lb.k;
          string_of_int params.Arbitrary_lb.n_chains;
          Printf.sprintf "%.3f" (Arbitrary_lb.log_gap ~ell);
          Printf.sprintf "%.3f" (Arbitrary_lb.adversary_gap_sum ~ell);
          Printf.sprintf "%.3f" eq.Chain_adversary.makespan;
          alg1;
        ])
    [ 1; 2; 3; 4; 5 ];
  Texttab.print tab;
  print_string
    "Every online strategy stays above the Lemma 10 sum; the offline optimum \
     is 1,\nso the ratio grows as Omega(ln D) with D = K tasks on the longest \
     path.\n"

(* ------------------------------------- Empirical validation (future work) *)

let empirical pool () =
  (* Instance generation draws from one generator per model family, split
     off the campaign seed in a fixed order on the caller; only the
     (policy, instance) evaluation cells fan out, so the campaign is
     identical at any job count. *)
  let seeds = Rng.create 20220829 in
  let instances_per_family = 25 in
  let campaigns =
    List.map
      (fun kind ->
        let bound = Ratio_report.table1_upper_bound kind in
        let rng = Rng.split seeds in
        let dags_layered =
          List.init instances_per_family (fun _ ->
              Moldable_workloads.Random_dag.layered ~rng ~n_layers:6 ~width:8
                ~edge_prob:0.25 ~kind ())
        in
        let dags_linalg =
          List.init 5 (fun i ->
              Moldable_workloads.Linalg.cholesky ~rng ~tiles:(4 + i) ~kind ())
        in
        let dags_sci =
          List.init 5 (fun i ->
              Moldable_workloads.Scientific.montage ~rng ~width:(8 + (4 * i))
                ~kind ())
        in
        let dags_cyber =
          List.init 3 (fun i ->
              Moldable_workloads.Scientific.cybershake ~rng ~sites:(3 + i)
                ~variations:8 ~kind ())
        in
        let dags_ligo =
          List.init 3 (fun i ->
              Moldable_workloads.Scientific.ligo ~rng ~blocks:(3 + i)
                ~per_block:10 ~kind ())
        in
        let policies =
          Experiment.algorithm1_fixed_mu (Mu.default kind)
          :: List.tl Experiment.default_policies
        in
        ( kind,
          bound,
          policies,
          [
            ("layered", dags_layered); ("cholesky", dags_linalg);
            ("montage", dags_sci); ("cybershake", dags_cyber);
            ("ligo", dags_ligo);
          ] ))
      [
        Speedup.Kind_roofline; Speedup.Kind_communication;
        Speedup.Kind_amdahl; Speedup.Kind_general;
      ]
  in
  let cells =
    List.fold_left
      (fun acc (_, _, policies, families) ->
        acc
        + List.length policies
          * List.fold_left (fun a (_, dags) -> a + List.length dags) 0 families)
      0 campaigns
  in
  let results, _, _ =
    compare_seq_par ~name:"empirical" ~cells
      ~equal:(fun a b ->
        List.for_all2 (List.for_all2 Experiment.equal_outcome) a b)
      pool
      (fun pool ->
        List.map
          (fun (_, _, policies, families) ->
            List.concat_map
              (fun (workload, dags) ->
                Experiment.evaluate ~pool ~p:64 ~workload ~policies dags)
              families)
          campaigns)
  in
  List.iter2
    (fun (kind, bound, _, _) outcomes ->
      Printf.printf "--- %s model (proven bound %.2f) ---\n"
        (Speedup.kind_name kind) bound;
      print_string (Report.table ~bound outcomes);
      print_newline ())
    campaigns results

(* -------------------------------- Independent moldable tasks (Table 2 row 1) *)

let independent_section () =
  let rng = Rng.create 1_992 in
  let tab =
    Texttab.create
      ~headers:
        [ "model"; "n"; "P"; "LB"; "Alg 1 (online)"; "Ye canonical (online)";
          "Turek (offline)"; "3 tau*" ]
  in
  List.iter
    (fun kind ->
      List.iter
        (fun (n, p) ->
          let dag =
            Moldable_workloads.Random_dag.independent ~rng ~n ~kind ()
          in
          let lb = (Bounds.compute ~p dag).Bounds.lower_bound in
          let alg1 = Online_scheduler.makespan ~p dag in
          let ye =
            Schedule.makespan
              (Moldable_indep.Ye.run ~p dag).Sim_core.schedule
          in
          let turek = Moldable_indep.Turek.schedule ~p dag in
          Texttab.add_row tab
            [
              Speedup.kind_name kind;
              string_of_int n;
              string_of_int p;
              Printf.sprintf "%.1f" lb;
              Printf.sprintf "%.1f (%.2fx)" alg1 (alg1 /. lb);
              Printf.sprintf "%.1f (%.2fx)" ye (ye /. lb);
              Printf.sprintf "%.1f (%.2fx)" turek.Moldable_indep.Turek.makespan
                (turek.Moldable_indep.Turek.makespan /. lb);
              Printf.sprintf "%.1f"
                (3. *. turek.Moldable_indep.Turek.tau_star);
            ])
        [ (50, 16); (200, 64); (500, 128) ])
    [ Speedup.Kind_roofline; Speedup.Kind_communication; Speedup.Kind_amdahl;
      Speedup.Kind_general ];
  Texttab.print tab;
  print_string
    "The offline dual-approximation always respects its 3 tau* guarantee and \
     the\npaper's Algorithm 1 tracks it closely even without clairvoyance. \
     The bare\ncanonical allotment over-parallelizes large task sets with \
     strong sequential\nfractions (Amdahl) — the contention cap that Ye et \
     al. add on top is what\nrestores their constant ratio.\n"

(* -------------------------------------------------- Ablation: mu sensitivity *)

let mu_sensitivity pool () =
  let rng = Rng.create 123_456 in
  let batches =
    List.map
      (fun kind ->
        ( kind,
          List.init 10 (fun _ ->
              Moldable_workloads.Random_dag.layered ~rng ~n_layers:5 ~width:8
                ~edge_prob:0.25 ~kind ()) ))
      [ Speedup.Kind_communication; Speedup.Kind_amdahl; Speedup.Kind_general ]
  in
  let mus = [ 0.10; 0.15; 0.21; 0.27; 0.32; 0.38 ] in
  let tab =
    Texttab.create
      ~headers:
        ("model"
        :: List.map (fun mu -> Printf.sprintf "mu=%.2f" mu) mus)
  in
  (* One cell per (model, mu, instance); the worst-ratio fold happens after
     the fan-out so the reduction order is fixed. *)
  let measured, _, _ =
    compare_seq_par ~name:"mu_sensitivity"
      ~cells:(List.length batches * List.length mus * 10)
      ~equal:(fun a b -> List.for_all2 (List.for_all2 Float.equal) a b)
      pool
      (fun pool ->
        List.map
          (fun (_, dags) ->
            List.map
              (fun mu ->
                let ratios =
                  Pool.map_list ~chunk:1 pool
                    (fun dag ->
                      snd
                        (Experiment.run_one ~p:64
                           (Experiment.algorithm1_fixed_mu mu) dag))
                    dags
                in
                List.fold_left Float.max 1. ratios)
              mus)
          batches)
  in
  List.iter2
    (fun (kind, _) worsts ->
      let family = Option.get (Model_bounds.family_of_kind kind) in
      let theory_row =
        List.map
          (fun mu ->
            let ub = Model_bounds.upper_bound_at family ~mu in
            if ub = infinity then "inf" else Printf.sprintf "%.2f" ub)
          mus
      in
      Texttab.add_row tab ((Speedup.kind_name kind ^ " (theory)") :: theory_row);
      Texttab.add_row tab
        ((Speedup.kind_name kind ^ " (measured)")
        :: List.map (fun w -> Printf.sprintf "%.2f" w) worsts))
    batches measured;
  Texttab.print tab;
  print_string
    "Measured worst ratios vary far less than the theoretical curve: the \
     bound's\nsensitivity to mu is a worst-case phenomenon.\n"

(* ------------------------------------------- Future work: power-law model *)

let power_law_section () =
  let tab =
    Texttab.create
      ~headers:
        ([ "alpha" ]
        @ List.map (fun p -> Printf.sprintf "P=%d" p) [ 32; 128; 512; 2048 ])
  in
  List.iter
    (fun alpha ->
      let row =
        List.map
          (fun p ->
            let tasks =
              List.init 64 (fun id ->
                  Task.make ~id (Speedup.Power { w = 100.; alpha }))
            in
            let dag = Dag.create ~tasks ~edges:[] in
            let makespan = Online_scheduler.makespan ~p dag in
            let lb = (Bounds.compute ~p dag).Bounds.lower_bound in
            Printf.sprintf "%.2f" (makespan /. lb))
          [ 32; 128; 512; 2048 ]
      in
      Texttab.add_row tab (Printf.sprintf "%.2f" alpha :: row))
    [ 0.5; 0.7; 0.9; 1.0 ];
  Texttab.print tab;
  print_string
    "alpha = 1 is linear speedup (roofline-like, ratio stays constant); \
     smaller\nalpha inflates the area of every allocation and the ratio \
     diverges with P.\n"

(* ------------------------------------------- Ablation: failure resilience *)

let failures_section pool () =
  let rng = Rng.create 31_337 in
  let dag =
    Moldable_workloads.Random_dag.layered ~rng ~n_layers:6 ~width:8
      ~edge_prob:0.25 ~kind:Speedup.Kind_amdahl ()
  in
  let p = 64 in
  let base =
    (Sim_core.run ~seed:1 ~p
       (Online_scheduler.policy ~allocator:Allocator.algorithm2_per_model ~p
          ())
       dag)
      .Sim_core.makespan
  in
  let qs = [ 0.0; 0.1; 0.2; 0.3; 0.5 ] in
  (* Every q-cell owns its failure stream through the explicit per-run seed,
     so the sweep fans out without reordering any random draw. *)
  let rows, _, _ =
    compare_seq_par ~name:"failure_sweep" ~cells:(List.length qs)
      ~equal:(fun a b ->
        List.for_all2
          (fun (aa, af, am) (ba, bf, bm) ->
            aa = ba && af = bf && Float.equal am bm)
          a b)
      pool
      (fun pool ->
        Pool.map_list ~chunk:1 pool
          (fun q ->
            let r =
              Sim_core.run ~seed:1
                ~failures:(Sim_core.bernoulli ~q)
                ~p
                (Online_scheduler.policy
                   ~allocator:Allocator.algorithm2_per_model ~p ())
                dag
            in
            (match Validate.check_attempts ~dag ~p (Sim_core.attempts r) with
            | Ok () -> ()
            | Error es -> failwith (String.concat "; " es));
            ( r.Sim_core.n_attempts,
              r.Sim_core.n_failures,
              r.Sim_core.makespan ))
          qs)
  in
  let tab =
    Texttab.create
      ~headers:
        [ "failure prob q"; "attempts"; "failures"; "makespan"; "slowdown";
          "1/(1-q)" ]
  in
  List.iter2
    (fun q (attempts, failures, makespan) ->
      Texttab.add_row tab
        [
          Printf.sprintf "%.2f" q;
          string_of_int attempts;
          string_of_int failures;
          Printf.sprintf "%.2f" makespan;
          Printf.sprintf "%.3f" (makespan /. base);
          Printf.sprintf "%.3f" (1. /. (1. -. q));
        ])
    qs rows;
  Texttab.print tab;
  (* Instrumentation of one representative failure run (q = 0.3), exported
     for offline analysis: counters + utilization timeline + queue depth +
     per-task waits.  Schema documented in EXPERIMENTS.md. *)
  let r =
    Sim_core.run ~seed:1
      ~failures:(Sim_core.bernoulli ~q:0.3)
      ~p
      (Online_scheduler.policy ~allocator:Allocator.algorithm2_per_model ~p
         ())
      dag
  in
  let m = r.Sim_core.metrics in
  Printf.printf "\ninstrumented run (q=0.30): %s\n"
    (Format.asprintf "%a" Metrics.pp m);
  write_json "failures_metrics.json" (Metrics.to_json m);
  write_artifact "failures_utilization.csv" (Metrics.utilization_csv m);
  write_artifact "failures_queue_depth.csv" (Metrics.queue_depth_csv m);
  write_artifact "failures_tasks.csv" (Metrics.tasks_csv m)

(* --------------------------------------- Extension: tasks released over time *)

let release_times_section () =
  let rng = Rng.create 8_642 in
  let n = 120 and p = 64 in
  let dag =
    Moldable_workloads.Random_dag.independent ~rng ~n
      ~kind:Speedup.Kind_amdahl ()
  in
  let releases = Array.make n 0. in
  let t = ref 0. in
  for i = 0 to n - 1 do
    t := !t +. Rng.exponential rng 0.4;
    releases.(i) <- !t
  done;
  let tab =
    Texttab.create
      ~headers:[ "policy"; "makespan"; "mean wait"; "max wait"; "utilization" ]
  in
  List.iter
    (fun (name, policy) ->
      let result = Sim_core.run ~release_times:releases ~p (policy ~p) dag in
      Validate.check_exn ~dag result.Sim_core.schedule;
      let m = result.Sim_core.metrics in
      Texttab.add_row tab
        [
          name;
          Printf.sprintf "%.2f" (Schedule.makespan result.Sim_core.schedule);
          Printf.sprintf "%.3f" (Metrics.mean_wait m);
          Printf.sprintf "%.3f" (Metrics.max_wait m);
          Printf.sprintf "%.1f%%" (100. *. Metrics.average_utilization m);
        ])
    [
      ( "Algorithm 1",
        fun ~p ->
          Online_scheduler.policy ~allocator:Allocator.algorithm2_per_model ~p
            () );
      ("min-time list", fun ~p -> Baselines.min_time_list ~p);
      ("sequential list", fun ~p -> Baselines.sequential_list ~p);
    ];
  Texttab.print tab

(* --------------------------------- Rigid vs moldable vs malleable regimes *)

let regimes_section () =
  let rng = Rng.create 10_101 in
  let tab =
    Texttab.create
      ~headers:[ "workload"; "rigid (p_max)"; "moldable (Alg 1)"; "malleable" ]
  in
  List.iter
    (fun (name, dag) ->
      let p = 48 in
      let lb = (Bounds.compute ~p dag).Bounds.lower_bound in
      let rigid =
        Schedule.makespan
          (Online_scheduler.run ~allocator:Allocator.min_time ~p dag)
            .Sim_core.schedule
      in
      let moldable = Online_scheduler.makespan ~p dag in
      let malleable =
        (Malleable_engine.equal_share ~p dag).Malleable_engine.makespan
      in
      Texttab.add_row tab
        [
          name;
          Printf.sprintf "%.3f" (rigid /. lb);
          Printf.sprintf "%.3f" (moldable /. lb);
          Printf.sprintf "%.3f" (malleable /. lb);
        ])
    [
      ( "layered/amdahl",
        Moldable_workloads.Random_dag.layered ~rng ~n_layers:5 ~width:8
          ~edge_prob:0.25 ~kind:Speedup.Kind_amdahl () );
      ( "layered/comm",
        Moldable_workloads.Random_dag.layered ~rng ~n_layers:5 ~width:8
          ~edge_prob:0.25 ~kind:Speedup.Kind_communication () );
      ( "cholesky-7/amdahl",
        Moldable_workloads.Linalg.cholesky ~rng ~tiles:7
          ~kind:Speedup.Kind_amdahl () );
      ( "montage-16/general",
        Moldable_workloads.Scientific.montage ~rng ~width:16
          ~kind:Speedup.Kind_general () );
      ( "independent/roofline",
        Moldable_workloads.Random_dag.independent ~rng ~n:60
          ~kind:Speedup.Kind_roofline () );
    ];
  Texttab.print tab;
  print_string
    "Moldability recovers most of malleability's advantage over rigid \
     requirements\n— the paper's motivation for the moldable middle ground.\n"

(* ----------------------------------------- Offline clairvoyant comparison *)

let offline_section () =
  let rng = Rng.create 55_555 in
  let tab =
    Texttab.create
      ~headers:
        [ "workload"; "T(online)"; "T(cp best)"; "T(CPA)"; "T(search)"; "LB";
          "T/T_best"; "T/LB" ]
  in
  List.iter
    (fun (name, dag) ->
      let p = 64 in
      let online = Online_scheduler.makespan ~p dag in
      let _, off = Offline.best_of ~p ~schedulers:Offline.named dag in
      let cpa = Schedule.makespan (Cpa.schedule ~p dag).Sim_core.schedule in
      let search =
        Schedule.makespan
          (Offline.randomized_search ~restarts:48 ~rng ~p dag).Sim_core.schedule
      in
      let best_off = Float.min (Float.min off search) cpa in
      let lb = (Bounds.compute ~p dag).Bounds.lower_bound in
      Texttab.add_row tab
        [
          name;
          Printf.sprintf "%.2f" online;
          Printf.sprintf "%.2f" off;
          Printf.sprintf "%.2f" cpa;
          Printf.sprintf "%.2f" search;
          Printf.sprintf "%.2f" lb;
          Printf.sprintf "%.3f" (online /. best_off);
          Printf.sprintf "%.3f" (online /. lb);
        ])
    [
      ( "layered/amdahl",
        Moldable_workloads.Random_dag.layered ~rng ~n_layers:6 ~width:8
          ~edge_prob:0.25 ~kind:Speedup.Kind_amdahl () );
      ( "cholesky-8/amdahl",
        Moldable_workloads.Linalg.cholesky ~rng ~tiles:8
          ~kind:Speedup.Kind_amdahl () );
      ( "lu-7/general",
        Moldable_workloads.Linalg.lu ~rng ~tiles:7 ~kind:Speedup.Kind_general
          () );
      ( "montage-24/comm",
        Moldable_workloads.Scientific.montage ~rng ~width:24
          ~kind:Speedup.Kind_communication () );
      ( "epigenomics-6x10/general",
        Moldable_workloads.Scientific.epigenomics ~rng ~lanes:6 ~fanout:10
          ~kind:Speedup.Kind_general () );
    ];
  Texttab.print tab

(* -------------------------------------------------- Lemma instrumentation *)

let lemmas_section () =
  let rng = Rng.create 424242 in
  let total = ref 0 and held = ref 0 in
  List.iter
    (fun kind ->
      let mu = Mu.default kind in
      for _ = 1 to 15 do
        let dag =
          Moldable_workloads.Random_dag.layered ~rng ~n_layers:5 ~width:6
            ~edge_prob:0.3 ~kind ()
        in
        let p = Rng.int_range rng 8 128 in
        let sched =
          (Online_scheduler.run ~allocator:(Allocator.algorithm2 ~mu) ~p dag)
            .Sim_core.schedule
        in
        let report = Lemmas.verify ~mu ~dag sched in
        incr total;
        if report.Lemmas.all_hold then incr held
      done)
    [ Speedup.Kind_roofline; Speedup.Kind_communication; Speedup.Kind_amdahl;
      Speedup.Kind_general ];
  Printf.printf "Lemma 3/4/5 inequalities held on %d / %d runs.\n" !held !total;
  assert (!held = !total)

(* ------------------------------------------------- Decision-level tracing *)

let tracing_section pool () =
  let rng = Rng.create 20_230_829 in
  let p = 64 in
  let dag =
    Moldable_workloads.Linalg.cholesky ~rng ~tiles:8 ~kind:Speedup.Kind_amdahl
      ()
  in
  let label i = (Dag.task dag i).Task.label in
  let tracer = Moldable_sim.Tracer.create () in
  let traced = Online_scheduler.run ~tracer ~p dag in
  let untraced = Online_scheduler.run ~p dag in
  (* Tracing must be observation-only. *)
  assert (
    Float.equal
      (Schedule.makespan traced.Sim_core.schedule)
      (Schedule.makespan untraced.Sim_core.schedule));
  Printf.printf "traced run: %d decisions, %d spans, %d instants\n"
    (Moldable_sim.Tracer.n_decisions tracer)
    traced.Sim_core.n_attempts
    (List.length (Moldable_sim.Tracer.instants tracer));
  (* The capped decisions are the interesting provenance: print one. *)
  (match
     List.find_opt
       (fun (d : Moldable_sim.Tracer.decision) -> d.Moldable_sim.Tracer.cap_applied)
       (Moldable_sim.Tracer.decisions tracer)
   with
  | Some d ->
    Printf.printf "\nexample capped decision:\n%s"
      (Format.asprintf "%a" Moldable_sim.Tracer.pp_decision d)
  | None -> print_string "\n(no decision hit the ceil(mu P) cap)\n");
  Printf.printf "\nself-profile of the traced run:\n%s"
    (Format.asprintf "%a" Moldable_sim.Tracer.pp_profile tracer);
  write_artifact "trace_cholesky_chrome.json"
    (Moldable_viz.Chrome_trace.of_run ~label tracer traced.Sim_core.metrics);
  write_artifact "trace_cholesky_gantt.svg"
    (Moldable_viz.Svg.of_schedule ~label traced.Sim_core.schedule);
  (* Ratio accounting across workload families, checked against Table 1.
     Instance generation keeps the caller's RNG order; the (run, bound)
     cells fan out. *)
  let ratio_specs =
    List.concat_map
      (fun kind ->
        [
          ( "layered",
            Moldable_workloads.Random_dag.layered ~rng ~n_layers:6 ~width:8
              ~edge_prob:0.25 ~kind () );
          ( "cholesky",
            Moldable_workloads.Linalg.cholesky ~rng ~tiles:7 ~kind () );
          ( "montage",
            Moldable_workloads.Scientific.montage ~rng ~width:16 ~kind () );
        ])
      [ Speedup.Kind_roofline; Speedup.Kind_communication;
        Speedup.Kind_amdahl; Speedup.Kind_general ]
  in
  let entries, _, _ =
    compare_seq_par ~name:"ratio_report" ~cells:(List.length ratio_specs)
      ~equal:(fun a b ->
        List.for_all2
          (fun (x : Ratio_report.entry) (y : Ratio_report.entry) ->
            String.equal x.Ratio_report.workload y.Ratio_report.workload
            && Float.equal x.Ratio_report.makespan y.Ratio_report.makespan
            && Float.equal x.Ratio_report.lower_bound
                 y.Ratio_report.lower_bound
            && Float.equal x.Ratio_report.ratio y.Ratio_report.ratio
            && Bool.equal x.Ratio_report.within_bound
                 y.Ratio_report.within_bound)
          a b)
      pool
      (fun pool ->
        Pool.map_list ~chunk:1 pool
          (fun (workload, dag) ->
            let makespan = Online_scheduler.makespan ~p dag in
            Ratio_report.of_run ~workload ~p ~makespan dag)
          ratio_specs)
  in
  print_newline ();
  print_string (Ratio_report.table entries);
  assert (List.for_all (fun e -> e.Ratio_report.within_bound) entries);
  write_json "ratio_report.json" (Ratio_report.to_json entries);
  (* Null-tracer overhead probe: the same run with and without the tracer
     argument (both untraced) should cost the same. *)
  let time_reps f = snd (time ~reps:25 f) in
  let t_default = time_reps (fun () -> Online_scheduler.run ~p dag) in
  let t_null =
    time_reps (fun () ->
        Online_scheduler.run ~tracer:Moldable_sim.Tracer.null ~p
          dag)
  in
  let t_traced =
    time_reps (fun () ->
        Online_scheduler.run
          ~tracer:(Moldable_sim.Tracer.create ())
          ~p dag)
  in
  Printf.printf
    "\nper-run cost: default %.6f s, explicit Tracer.null %.6f s, traced \
     %.6f s\n"
    t_default t_null t_traced

(* ------------------------------------------------------------ Scalability *)

let scalability () =
  let rng = Rng.create 4_242 in
  let tab =
    Texttab.create
      ~headers:[ "tasks"; "edges"; "P"; "schedule time"; "tasks/s" ]
  in
  List.iter
    (fun (layers, width, p) ->
      let dag =
        Moldable_workloads.Random_dag.layered ~rng ~n_layers:layers ~width
          ~edge_prob:0.08 ~kind:Speedup.Kind_amdahl ()
      in
      let result = Online_scheduler.run ~p dag in
      Validate.check_exn ~dag result.Sim_core.schedule;
      let reps = ref 0 in
      let t0 = Clock.now () in
      while Clock.now () -. t0 < 0.2 do
        ignore (Online_scheduler.run ~p dag);
        incr reps
      done;
      let dt = (Clock.now () -. t0) /. float_of_int (max 1 !reps) in
      Texttab.add_row tab
        [
          string_of_int (Dag.n dag);
          string_of_int (Dag.n_edges dag);
          string_of_int p;
          Printf.sprintf "%.4f s" dt;
          Printf.sprintf "%.0f" (float_of_int (Dag.n dag) /. Float.max 1e-9 dt);
        ])
    [ (20, 20, 64); (50, 40, 128); (100, 100, 256); (200, 250, 512) ];
  Texttab.print tab

(* --------------------------------------------- Scalability of the hot path *)

let scalability_hot_path pool () =
  (* The timed runs stay on a single domain — racing them across workers
     would corrupt the per-row wall clocks; the pool only accelerates the
     feasibility validation of the large schedules. *)
  let tab =
    Texttab.create
      ~headers:
        [ "workload"; "tasks"; "P"; "heap"; "per task"; "sorted list";
          "speedup" ]
  in
  let acceptance = ref None in
  let row ~name ~dag ~p ~with_reference =
    let n = Dag.n dag in
    let heap, t_heap =
      time (fun () ->
          Sim_core.run ~p
            (Online_scheduler.policy ~allocator:Allocator.algorithm2_per_model
               ~p ())
            dag)
    in
    if n <= 10_000 then Validate.check_exn ~pool ~dag heap.Sim_core.schedule;
    let reference =
      if with_reference then begin
        let r, t_ref =
          time (fun () ->
              Sim_core.run ~p
                (Moldable_oracle.Reference.policy
                   ~allocator:Allocator.algorithm2_per_model ~p ())
                dag)
        in
        (* The two policies must agree; the bench would be meaningless
           otherwise. *)
        assert (
          Float.equal
            (Schedule.makespan heap.Sim_core.schedule)
            (Schedule.makespan r.Sim_core.schedule));
        Some t_ref
      end
      else None
    in
    let opt f = Option.fold ~none:Json.Null ~some:(fun t -> Json.Num (f t)) in
    record "scaling"
      (Json.Obj
         [
           ("workload", Json.Str name); ("tasks", Json.int n);
           ("p", Json.int p); ("heap_s", Json.Num t_heap);
           ("reference_s", opt Fun.id reference);
           ("speedup", opt (fun t -> t /. Float.max 1e-9 t_heap) reference);
         ]);
    Texttab.add_row tab
      [
        name;
        string_of_int n;
        string_of_int p;
        Printf.sprintf "%.3f s" t_heap;
        Printf.sprintf "%.2f us" (1e6 *. t_heap /. float_of_int n);
        (match reference with
        | Some t -> Printf.sprintf "%.3f s" t
        | None -> "-");
        (match reference with
        | Some t ->
          let s = t /. Float.max 1e-9 t_heap in
          if name = "wide independent" && n = 100_000 && p = 256 then
            acceptance := Some s;
          Printf.sprintf "%.1fx" s
        | None -> "-");
      ]
  in
  let rng = Rng.create 77_777 in
  (* Wide independent sets: every task is ready at t = 0, so the ready queue
     reaches its maximum size and the sorted list degenerates to O(n^2). *)
  List.iter
    (fun (n, p, with_reference) ->
      let dag =
        Moldable_workloads.Random_dag.independent ~rng ~n
          ~kind:Speedup.Kind_amdahl ()
      in
      row ~name:"wide independent" ~dag ~p ~with_reference)
    [ (1_000, 256, true); (10_000, 256, true); (100_000, 256, true);
      (100_000, 100_000, false) ];
  Texttab.add_sep tab;
  (* Deep chain of Theorem 9 tasks, t(p) = 1 / (lg p + 1): one ready task at
     a time, so this isolates the per-task analysis cost of an Arbitrary
     speedup (O(P) scan, once per reveal vs twice). *)
  let theorem9_time p = 1. /. ((log (float_of_int p) /. log 2.) +. 1.) in
  List.iter
    (fun (n, p) ->
      let tasks =
        List.init n (fun id ->
            Task.make ~id
              (Speedup.Arbitrary { name = "thm9"; time = theorem9_time }))
      in
      let edges = List.init (n - 1) (fun i -> (i, i + 1)) in
      let dag = Dag.create ~tasks ~edges in
      row ~name:"thm-9 chain" ~dag ~p ~with_reference:true)
    [ (10_000, 256); (100_000, 256) ];
  Texttab.add_sep tab;
  (* Layered random DAGs: precedence keeps the ready set at ~width tasks, the
     regime the seed was written for. *)
  List.iter
    (fun (layers, width, p) ->
      let dag =
        Moldable_workloads.Random_dag.layered ~rng ~n_layers:layers ~width
          ~edge_prob:0.02 ~kind:Speedup.Kind_general ()
      in
      row ~name:"layered random" ~dag ~p ~with_reference:true)
    [ (200, 100, 1_024); (2_000, 100, 1_024) ];
  Texttab.print tab;
  print_string
    "\nThe heap's win is asymptotic: it dominates when the ready set is \
     large (wide\nsets: the sorted list is quadratic), roughly halves the \
     chain case (one\nanalysis per reveal: one O(P) Arbitrary scan per \
     task instead of two), and concedes a small\nconstant factor when \
     precedence keeps the ready set tiny (layered rows).\n";
  gate
    (match !acceptance with
    | Some s when s >= 10. ->
      Ok
        (Printf.sprintf
           "heap policy is %.0fx faster than the sorted list on the \
            10^5-task\nwide set at P = 256 (criterion: >= 10x)."
           s)
    | Some s -> Error (Printf.sprintf "speedup %.1fx < 10x" s)
    | None -> Error "10^5/P=256 row did not run")

(* ------------------------------------------------- Allocation-lean core *)

let alloc_lean_section () =
  let p = 256 and n = 100_000 in
  let rng = Rng.create 424_243 in
  (* Narrow moldable tasks (roofline, ptilde <= 4): processor blocks stay
     small, so the irreducible per-task cost both paths share — the procs
     arrays the schedule retains, the allocator's probes — is a small
     fraction of the reference loop's boxed-event/cons-list overhead, which
     is exactly what this section isolates. *)
  let dag =
    Moldable_workloads.Random_dag.independent
      ~spec:{ Moldable_workloads.Params.default with ptilde_max = 4 }
      ~rng ~n ~kind:Speedup.Kind_roofline ()
  in
  let fresh_policy () =
    Online_scheduler.policy ~allocator:Allocator.algorithm2_per_model ~p ()
  in
  (* Single-domain section: [Gc.minor_words] reads this domain's allocation
     counter, so the word count is exact, not sampled.  Each mode runs
     [reps] times and keeps its fastest rep (standard best-of-N against
     scheduler noise), after a full major collection so no mode pays for a
     predecessor's garbage. *)
  let reps = 5 in
  let measure mode f =
    let best_wall = ref infinity and best_words = ref infinity in
    let result = ref None in
    for _ = 1 to reps do
      Gc.full_major ();
      let g0 = Gc.minor_words () in
      let t0 = Clock.now () in
      let r = f () in
      let wall = Clock.now () -. t0 in
      let words = Gc.minor_words () -. g0 in
      if wall < !best_wall then begin
        best_wall := wall;
        result := Some r
      end;
      if words < !best_words then best_words := words
    done;
    (* Before/after row for BENCH_scaling.json: per-run wall clock and
       minor-heap words of this mode. *)
    record "alloc_lean"
      (Json.Obj
         [
           ("mode", Json.Str mode); ("tasks", Json.int n); ("p", Json.int p);
           ("wall_s", Json.Num !best_wall);
           ("minor_words", Json.Num !best_words);
         ]);
    (Option.get !result, !best_wall, !best_words)
  in
  let r_ref, t_ref, w_ref =
    measure "reference" (fun () ->
        Moldable_oracle.Reference.run ~p (fresh_policy ()) dag)
  in
  (* A run without [~arena] reuses the domain's arena; the full row
     measures fresh storage, so it passes a new arena every rep. *)
  let r_full, t_full, w_full =
    measure "full" (fun () ->
        Sim_core.run ~arena:(Sim_core.Arena.create ()) ~p (fresh_policy ())
          dag)
  in
  let arena = Sim_core.Arena.create () in
  (* One warm-up run grows the arena to its (p, n) high-water mark; the
     measured runs then reuse every array. *)
  ignore (Sim_core.run ~arena ~lean:true ~p (fresh_policy ()) dag);
  let r_lean, t_lean, w_lean =
    measure "lean_arena" (fun () ->
        Sim_core.run ~arena ~lean:true ~p (fresh_policy ()) dag)
  in
  (* The three paths must agree placement-by-placement; the qcheck
     differential suite pins this across rules/allocators/failure models,
     and this assert extends the pin to the 10^5-task scale. *)
  let same_placements a b =
    Schedule.n a = Schedule.n b
    && List.for_all
         (fun i ->
           let pa = Schedule.placement a i and pb = Schedule.placement b i in
           Float.equal pa.Schedule.start pb.Schedule.start
           && Float.equal pa.Schedule.finish pb.Schedule.finish
           && pa.Schedule.nprocs = pb.Schedule.nprocs)
         (List.init (Schedule.n a) (fun i -> i))
  in
  if
    not
      (same_placements r_ref.Moldable_oracle.Reference.schedule
           r_full.Sim_core.schedule
      && same_placements r_ref.Moldable_oracle.Reference.schedule r_lean.Sim_core.schedule)
  then failwith "alloc_lean: schedules diverged between core variants";
  let tab =
    Texttab.create
      ~headers:
        [ "mode"; "wall"; "minor words"; "words/task"; "vs reference" ]
  in
  let per_task w = w /. float_of_int n in
  List.iter
    (fun (mode, t, w) ->
      Texttab.add_row tab
        [
          mode;
          Printf.sprintf "%.3f s" t;
          Printf.sprintf "%.2e" w;
          Printf.sprintf "%.0f" (per_task w);
          Printf.sprintf "%.1fx fewer, %.1fx faster" (w_ref /. Float.max 1. w)
            (t_ref /. Float.max 1e-9 t);
        ])
    [ ("reference", t_ref, w_ref); ("full", t_full, w_full);
      ("lean_arena", t_lean, w_lean) ];
  Texttab.print tab;
  (* Timing-free artifact (byte-identical at any --jobs), so CI can cmp it
     across job counts like the sweep outcomes. *)
  write_json "alloc_lean_check.json"
    (Json.Obj
       [
         ("schema", Json.Str "moldable/alloc_lean_check/v1");
         ("workload", Json.Str "wide independent roofline (ptilde <= 4)");
         ("tasks", Json.int n); ("p", Json.int p);
         ("makespan", Json.Num r_lean.Sim_core.makespan);
         ("n_attempts", Json.int r_lean.Sim_core.n_attempts);
         ("modes_agree", Json.Bool true);
       ]);
  let words_ratio = w_ref /. Float.max 1. w_lean in
  let wall_ratio = t_ref /. Float.max 1e-9 t_lean in
  gate
    (if words_ratio >= 5. && wall_ratio >= 1.5 then
       Ok
         (Printf.sprintf
            "lean arena run allocates %.1fx fewer minor words and is %.1fx \
             faster\nthan run_reference on the 10^5-task workload \
             (criteria: >= 5x words, >= 1.5x wall)."
            words_ratio wall_ratio)
     else
       Error
         (Printf.sprintf
            "%.1fx fewer minor words (need >= 5x), %.2fx wall (need >= 1.5x)"
            words_ratio wall_ratio))

(* ------------------------------------------------------- Service daemon *)

let service_section () =
  let module Server = Moldable_service.Server in
  let module Client = Moldable_service.Client in
  let module Protocol = Moldable_service.Protocol in
  let module R = Moldable_obs.Registry in
  let p = 64 in
  let speedup = Speedup.Roofline { w = 1.; ptilde = 4 } in
  let open_spec =
    {
      Protocol.o_p = p; o_algorithm = `Original; o_priority = "fifo";
      o_seed = 0; o_max_attempts = None; o_failures = `Never;
    }
  in
  let registry = R.create () in
  let config =
    { (Server.default_config ~registry ()) with Server.sessions = 2 }
  in
  let listener =
    match Server.listen_tcp ~host:"127.0.0.1" ~port:0 with
    | Ok l -> l
    | Error e -> failwith ("service: " ^ e)
  in
  let port = Option.get (Server.port listener) in
  let stop = Atomic.make false in
  let daemon = Domain.spawn (fun () -> Server.serve ~stop config listener) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join daemon)
  @@ fun () ->
  (* --- round-trip latency: one request, one response, timed each way *)
  let n_probe = 2_000 in
  let rtts = Array.make n_probe 0. in
  (match Client.connect_tcp ~host:"127.0.0.1" ~port () with
  | Error e -> failwith ("service: " ^ e)
  | Ok c ->
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    let rpc_exn req =
      match Client.rpc c req with
      | Ok resp -> resp
      | Error e -> failwith ("service: " ^ e)
    in
    ignore (rpc_exn (Protocol.Open open_spec));
    for i = 0 to n_probe - 1 do
      let submit =
        Protocol.Submit
          {
            Protocol.s_label = ""; s_speedup = speedup; s_deps = [];
            s_release = 0.;
          }
      in
      let t0 = Clock.now () in
      ignore (rpc_exn submit);
      rtts.(i) <- Clock.now () -. t0
    done;
    ignore (rpc_exn Protocol.Drain));
  Array.sort compare rtts;
  let pct q = rtts.(min (n_probe - 1) (int_of_float (q *. float_of_int n_probe))) in
  let rtt_p50 = pct 0.50 and rtt_p99 = pct 0.99 in
  (* --- pipelined throughput: all submit lines written without waiting,
     a reader domain draining responses concurrently *)
  let n_pipe = 50_000 in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  let line_of req =
    match Protocol.request_to_json req with
    | Ok j -> Json.to_string_compact j ^ "\n"
    | Error e -> failwith ("service: " ^ e)
  in
  let send s =
    let b = Bytes.of_string s in
    let len = Bytes.length b in
    let off = ref 0 in
    while !off < len do
      off := !off + Unix.write fd b !off (len - !off)
    done
  in
  (* blocking char-at-a-time line read; only used for the four
     single-threaded exchanges, which are all short *)
  let read_line () =
    let buf = Buffer.create 256 in
    let byte = Bytes.create 1 in
    let rec go () =
      match Unix.read fd byte 0 1 with
      | 0 -> failwith "service: connection closed"
      | _ ->
        if Bytes.get byte 0 = '\n' then Buffer.contents buf
        else begin
          Buffer.add_char buf (Bytes.get byte 0);
          go ()
        end
    in
    go ()
  in
  let response () =
    match Json.of_string (read_line ()) with
    | Ok j -> j
    | Error e -> failwith ("service: " ^ e)
  in
  let expect_ok ctx resp =
    match Json.member "ok" resp with
    | Some (Json.Bool true) -> resp
    | _ -> failwith ("service: " ^ ctx ^ ": " ^ Json.to_string_compact resp)
  in
  send (line_of (Protocol.Open open_spec));
  ignore (expect_ok "open" (response ()));
  let payload = Buffer.create (n_pipe * 64) in
  let submit_line =
    line_of
      (Protocol.Submit
         {
           Protocol.s_label = ""; s_speedup = speedup; s_deps = [];
           s_release = 0.;
         })
  in
  for _ = 1 to n_pipe do
    Buffer.add_string payload submit_line
  done;
  let data = Buffer.to_bytes payload in
  let len = Bytes.length data in
  let t0 = Clock.now () in
  let reader =
    Domain.spawn (fun () ->
        let buf = Bytes.create 65536 in
        let seen = ref 0 in
        while !seen < n_pipe do
          match Unix.read fd buf 0 65536 with
          | 0 -> failwith "service: connection closed mid-pipeline"
          | k ->
            for i = 0 to k - 1 do
              if Bytes.get buf i = '\n' then incr seen
            done
        done;
        !seen)
  in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd data !off (min 65536 (len - !off))
  done;
  let n_seen = Domain.join reader in
  let wall = Clock.now () -. t0 in
  assert (n_seen = n_pipe);
  let submits_per_s = float_of_int n_pipe /. Float.max 1e-9 wall in
  send (line_of Protocol.Drain);
  let drained = expect_ok "drain" (response ()) in
  let server_mk =
    match Option.bind (Json.member "makespan" drained) Json.to_float with
    | Some mk -> mk
    | None -> failwith "service: drain response lacks a makespan"
  in
  send (line_of Protocol.Close);
  ignore (response ());
  (* The pipelined workload replayed locally must agree exactly. *)
  let dag =
    Dag.create
      ~tasks:(List.init n_pipe (fun id -> Task.make ~id speedup))
      ~edges:[]
  in
  let local = Online_scheduler.run ~p dag in
  if not (Float.equal (Schedule.makespan local.Sim_core.schedule) server_mk)
  then failwith "service: drained makespan diverged from the local run";
  (* --- server-side truth: decision latency histogram, protocol errors *)
  let snap = R.snapshot registry in
  let find name =
    List.find_opt (fun m -> m.R.ms_name = name) snap
  in
  let decision_p50, decision_p99 =
    match find "moldable_service_decision_latency_seconds" with
    | Some { R.ms_value = R.Hist_v h; _ } -> (h.R.p50, h.R.p99)
    | _ -> (Float.nan, Float.nan)
  in
  let protocol_errors =
    match find "moldable_service_protocol_errors" with
    | Some { R.ms_value = R.Counter_v v; _ } -> v
    | _ -> Float.nan
  in
  (* Probe for BENCH_scaling.json: pipelined submission throughput,
     client round-trip and server-side decision-latency percentiles,
     protocol error count. *)
  record "service"
    (Json.Obj
       [
         ("tasks", Json.int n_pipe); ("p", Json.int p);
         ("submits_per_s", Json.Num submits_per_s);
         ("rtt_p50_s", Json.Num rtt_p50); ("rtt_p99_s", Json.Num rtt_p99);
         ("decision_p50_s", Json.Num decision_p50);
         ("decision_p99_s", Json.Num decision_p99);
         ("protocol_errors", Json.Num protocol_errors);
       ]);
  let tab = Texttab.create ~headers:[ "probe"; "value" ] in
  List.iter
    (fun (k, v) -> Texttab.add_row tab [ k; v ])
    [
      ("round-trip p50", Printf.sprintf "%.1f us" (1e6 *. rtt_p50));
      ("round-trip p99", Printf.sprintf "%.1f us" (1e6 *. rtt_p99));
      ("decision p50", Printf.sprintf "%.1f us" (1e6 *. decision_p50));
      ("decision p99", Printf.sprintf "%.1f us" (1e6 *. decision_p99));
      ( "pipelined throughput",
        Printf.sprintf "%.0f submissions/s (%d tasks in %.3f s)"
          submits_per_s n_pipe wall );
      ("protocol errors", Printf.sprintf "%.0f" protocol_errors);
      ("drained makespan", Printf.sprintf "%.6g (= local run)" server_mk);
    ];
  Texttab.print tab;
  gate
    (if submits_per_s >= 10_000. && protocol_errors = 0. then
       Ok
         (Printf.sprintf
            "%.0f pipelined submissions/s over loopback with zero protocol \
             errors\n(criteria: >= 10k/s, 0 errors), drained makespan \
             identical to the local batch run."
            submits_per_s)
     else
       Error
         (Printf.sprintf
            "%.0f submissions/s (need >= 10k), %.0f protocol errors (need 0)"
            submits_per_s protocol_errors))

(* ----------------------------------------------- Parallel experiment sweep *)

(* The multicore fan-out acceptance section: a full (workload x policy x
   instance) campaign evaluated once sequentially and once on the domain
   pool.  The two runs must agree bit-for-bit (every cell is seeded before
   dispatch), and on a multicore runner jobs=2 must be >= 1.5x faster.  The
   outcome artifact contains no timings, so it is byte-identical at any job
   count — CI diffs a --jobs 1 run against a --jobs 2 run. *)

let outcomes_json ~cells outcomes =
  let nums xs = Json.List (List.map (fun x -> Json.Num x) xs) in
  Json.Obj
    [
      ("cells", Json.int cells);
      ( "outcomes",
        Json.List
          (List.map
             (fun (o : Experiment.outcome) ->
               let s = o.Experiment.summary in
               Json.Obj
                 [
                   ("workload", Json.Str o.Experiment.workload);
                   ("policy", Json.Str o.Experiment.policy);
                   ("p", Json.int o.Experiment.p); ("n", Json.int s.Stats.n);
                   ("mean", Json.Num s.Stats.mean);
                   ("stddev", Json.Num s.Stats.stddev);
                   ("min", Json.Num s.Stats.min);
                   ("median", Json.Num s.Stats.median);
                   ("p95", Json.Num s.Stats.p95); ("max", Json.Num s.Stats.max);
                   ("ratios", nums o.Experiment.ratios);
                   ("makespans", nums o.Experiment.makespans);
                 ])
             outcomes) );
    ]

let parallel_sweep pool () =
  let seeds = Rng.create 777_000_001 in
  let policies = Experiment.default_policies in
  (* The campaign targets 1000 cells: a 200-cell campaign (16 layered + 4
     cholesky instances per kind) finishes in ~35 ms, which is below
     domain-pool overhead, so the >= 1.5x fan-out gate measured noise (0.97x
     at jobs=2).  Layered instances fill the target; cholesky stays at 4
     sizes per kind. *)
  let dags_per_kind = max 20 (1000 / (List.length policies * 2)) in
  let n_layered = max 16 (dags_per_kind - 4) in
  let campaign =
    List.concat_map
      (fun kind ->
        (* One sibling generator per workload family, split before any
           generation so the campaign is a pure function of the seed. *)
        let rngs = Rng.split_n seeds 2 in
        [
          ( Speedup.kind_name kind ^ "/layered",
            List.init n_layered (fun _ ->
                Moldable_workloads.Random_dag.layered ~rng:rngs.(0)
                  ~n_layers:7 ~width:10 ~edge_prob:0.25 ~kind ()) );
          ( Speedup.kind_name kind ^ "/cholesky",
            List.init 4 (fun i ->
                Moldable_workloads.Linalg.cholesky ~rng:rngs.(1)
                  ~tiles:(5 + i) ~kind ()) );
        ])
      [ Speedup.Kind_amdahl; Speedup.Kind_communication ]
  in
  let cells =
    List.length policies
    * List.fold_left (fun a (_, dags) -> a + List.length dags) 0 campaign
  in
  let outcomes, seq_s, par_s =
    compare_seq_par ~name:"parallel_sweep" ~cells
      ~equal:(List.for_all2 Experiment.equal_outcome)
      pool
      (fun pool ->
        List.concat_map
          (fun (workload, dags) ->
            Experiment.evaluate ~pool ~p:64 ~workload ~policies dags)
          campaign)
  in
  print_string (Report.table outcomes);
  write_json "parallel_sweep_results.json" (outcomes_json ~cells outcomes);
  let speedup = seq_s /. Float.max 1e-9 par_s in
  gate
    (if Pool.jobs pool < 2 then
       Ok "skipped (sequential run; pass --jobs 2 or more)."
     else if Domain.recommended_domain_count () < 2 then
       Ok
         (Printf.sprintf
            "skipped (single-core runner; measured %.2fx at jobs=%d)." speedup
            (Pool.jobs pool))
     else if speedup >= 1.5 then
       Ok
         (Printf.sprintf
            "parallel sweep is %.2fx faster at jobs=%d than the sequential \
             run on the same campaign (criterion: >= 1.5x)."
            speedup (Pool.jobs pool))
     else Error (Printf.sprintf "parallel speedup %.2fx < 1.5x" speedup))

(* ------------------------------------------- Exact rational shadow oracle *)

(* Differential acceptance gate: every float comparison the online scheduler
   made — completion stamps, batch merges, precedence, occupancy, Algorithm
   2 allocations, the Lemma 2 bound and the ratio denominator — is replayed
   in exact rational arithmetic (test/oracle/exact).  Cells cover random
   (model, DAG, P) triples for all five speedup families plus the Figure 1 and
   Figure 3 adversarial constructions; each cell is a pure function of its
   seed, so the sweep fans out deterministically.  One unexplained
   divergence fails the bench. *)

let exact_oracle pool () =
  let module Shadow = Moldable_exact.Shadow in
  (* One cell: run the float scheduler, replay it exactly, summarize.  The
     summary tuple is structurally comparable, so the seq-vs-par determinism
     check of [compare_seq_par] applies verbatim. *)
  let check_cell ~name ~mu ~dag ~p result =
    let r = Shadow.check ~mu ~dag ~p result in
    ( name,
      r.Shadow.checks,
      r.Shadow.n_explained,
      r.Shadow.n_unexplained,
      if r.Shadow.divergences = [] then None
      else Some (Shadow.report_to_json r) )
  in
  let random_cell seed =
    let rng = Rng.create (0x0AC1E + seed) in
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
        Moldable_workloads.Random_dag.layered ~rng
          ~n_layers:(Rng.int_range rng 2 6)
          ~width:(Rng.int_range rng 1 8)
          ~edge_prob:(Rng.float_range rng 0.05 0.6)
          ~kind ()
      | 1 ->
        Moldable_workloads.Random_dag.independent ~rng
          ~n:(Rng.int_range rng 1 30) ~kind ()
      | _ ->
        Moldable_workloads.Random_dag.erdos_renyi ~rng
          ~n:(Rng.int_range rng 2 25)
          ~edge_prob:(Rng.float_range rng 0.05 0.4)
          ~kind ()
    in
    let p = Rng.int_range rng 2 128 in
    let mu = Mu.default kind in
    (* A slice of the cells exercises the failure/retry and release-time
       paths, whose batch merges are the trickiest float comparisons. *)
    let with_failures = seed mod 5 = 0 in
    let release_times =
      if seed mod 7 = 0 then
        Some (Array.init (Dag.n dag) (fun _ -> Rng.float_range rng 0. 5.))
      else None
    in
    let result =
      Online_scheduler.run
        ~allocator:(Allocator.algorithm2 ~mu)
        ?release_times ~seed
        ~failures:
          (if with_failures then Sim_core.bernoulli ~q:0.15 else Sim_core.never)
        ~max_attempts:64 ~p dag
    in
    check_cell
      ~name:
        (Printf.sprintf "random-%04d/%s%s" seed (Speedup.kind_name kind)
           (if with_failures then "+failures" else ""))
      ~mu ~dag ~p result
  in
  let adversarial_cells () =
    let of_instance (inst : Instances.t) =
      let result =
        Online_scheduler.run
          ~allocator:(Allocator.algorithm2 ~mu:inst.Instances.mu)
          ~p:inst.Instances.p inst.Instances.dag
      in
      check_cell ~name:inst.Instances.name ~mu:inst.Instances.mu
        ~dag:inst.Instances.dag ~p:inst.Instances.p result
    in
    let of_chains ell =
      let inst = Chains.build ~ell in
      let mu = Mu.default Speedup.Kind_arbitrary in
      let result =
        Online_scheduler.run
          ~allocator:(Allocator.algorithm2 ~mu)
          ~p:inst.Chains.p inst.Chains.dag
      in
      check_cell
        ~name:(Printf.sprintf "thm9-chains(l=%d)" ell)
        ~mu ~dag:inst.Chains.dag ~p:inst.Chains.p result
    in
    List.map of_instance
      (List.map (fun p -> Instances.roofline ~p) [ 100; 1000 ]
      @ List.map (fun p -> Instances.communication ~p) [ 100; 500 ]
      @ List.map (fun k -> Instances.amdahl ~k) [ 10; 30 ]
      @ List.map (fun k -> Instances.general ~k) [ 10; 30 ])
    @ List.map of_chains [ 1; 2 ]
  in
  let n_random = 1000 in
  let seeds = List.init n_random (fun i -> i) in
  let cells, _, _ =
    compare_seq_par ~name:"exact_oracle"
      ~cells:(n_random + 10)
      (* [compare], not [=]: a NaN inside a report equals itself. *)
      ~equal:(fun a b -> compare a b = 0)
      pool
      (fun pool ->
        Pool.map_list ~chunk:8 pool random_cell seeds @ adversarial_cells ())
  in
  let checks = List.fold_left (fun a (_, c, _, _, _) -> a + c) 0 cells in
  let explained = List.fold_left (fun a (_, _, e, _, _) -> a + e) 0 cells in
  let unexplained = List.fold_left (fun a (_, _, _, u, _) -> a + u) 0 cells in
  let flagged =
    List.filter_map
      (fun (name, _, e, u, json) -> Option.map (fun j -> (name, e, u, j)) json)
      cells
  in
  Printf.printf
    "%d cells (%d random + %d adversarial), %d exact checks: %d explained \
     divergence(s), %d unexplained\n"
    (List.length cells) n_random
    (List.length cells - n_random)
    checks explained unexplained;
  List.iter
    (fun (name, e, u, _) ->
      Printf.printf "  flagged cell %s: %d explained, %d unexplained\n" name e
        u)
    flagged;
  write_json "exact_oracle_divergences.json"
    (Json.Obj
       [
         ("cells", Json.int (List.length cells)); ("checks", Json.int checks);
         ("n_explained", Json.int explained);
         ("n_unexplained", Json.int unexplained);
         ( "flagged",
           Json.List
             (List.map
                (fun (name, _, _, report) ->
                  Json.Obj [ ("cell", Json.Str name); ("report", report) ])
                flagged) );
       ]);
  gate
    (if unexplained > 0 then
       Error
         (Printf.sprintf
            "%d unexplained float-vs-exact divergence(s) — see \
             exact_oracle_divergences.json"
            unexplained)
     else
       Ok
         (Printf.sprintf
            "zero unexplained divergences across %d cells (%d exact checks; \
             %d boundary divergence(s) explained by documented tolerances)."
            (List.length cells) checks explained))

(* -------------------------------- Original vs improved online algorithm *)

(* Side-by-side accounting of the two online algorithms: the proven-bound
   table (recomputed ICPP 2022 vs transcribed Perotin-Sun 2023 constants)
   and measured [T / LB] ratios on the adversarial constructions plus
   random workloads per speedup family.  Instance generation precedes the
   fan-out and every (instance -> two runs) cell is a pure function of its
   DAG, so the comparison artifact is byte-identical at any job count. *)

let improved_ratio pool () =
  assert (Improved_bounds.coherent ());
  let tab =
    Texttab.create
      ~headers:
        [ "model"; "mu"; "rho"; "original bound"; "improved bound"; "paper" ]
  in
  List.iter
    (fun (r : Improved_bounds.row) ->
      Texttab.add_row tab
        [
          Model_bounds.family_name r.Improved_bounds.family;
          Printf.sprintf "%.4f" r.Improved_bounds.mu;
          Printf.sprintf "%.4f" r.Improved_bounds.rho;
          Printf.sprintf "%.4f" r.Improved_bounds.original;
          Printf.sprintf "%.4f" r.Improved_bounds.improved;
          Printf.sprintf "%.2f" r.Improved_bounds.paper_improved;
        ])
    (Improved_bounds.table ());
  Texttab.print tab;
  print_newline ();
  let rng = Rng.create 27_182 in
  let random_specs =
    List.concat_map
      (fun kind ->
        List.init 8 (fun _ ->
            ( "random/" ^ Speedup.kind_name kind,
              64,
              Moldable_workloads.Random_dag.layered ~rng ~n_layers:6 ~width:8
                ~edge_prob:0.25 ~kind () )))
      [ Speedup.Kind_roofline; Speedup.Kind_communication;
        Speedup.Kind_amdahl; Speedup.Kind_general ]
  in
  let adversarial_specs =
    (* Named per instance: the Figure-1 constructions mix speedup families
       (sequential gadget tasks), so grouping by detected model alone would
       merge them into one "arbitrary" row. *)
    List.map
      (fun (inst : Instances.t) ->
        (inst.Instances.name, inst.Instances.p, inst.Instances.dag))
      [ Instances.roofline ~p:128; Instances.communication ~p:128;
        Instances.amdahl ~k:12; Instances.general ~k:12 ]
  in
  let specs = adversarial_specs @ random_specs in
  let cells, _, _ =
    compare_seq_par ~name:"improved_ratio"
      ~cells:(List.length specs)
      ~equal:(fun a b -> a = b)
      pool
      (fun pool ->
        Pool.map_list ~chunk:1 pool
          (fun (workload, p, dag) ->
            let kind = Ratio_report.kind_of_dag dag in
            let m_orig = Online_scheduler.makespan ~p dag in
            let m_impr =
              Schedule.makespan
                (Online_scheduler.run ~allocator:Improved_alloc.per_model ~p
                   dag)
                  .Sim_core.schedule
            in
            let eo =
              Ratio_report.of_run ~model:kind ~workload ~p ~makespan:m_orig
                dag
            in
            let ei =
              Ratio_report.of_run ~model:kind
                ~proven_bound:(Ratio_report.improved_upper_bound kind)
                ~workload ~p ~makespan:m_impr dag
            in
            (eo, ei))
          specs)
  in
  print_newline ();
  let original = List.map fst cells and improved = List.map snd cells in
  let comparisons = Ratio_report.compare_runs ~original ~improved in
  print_string (Ratio_report.comparison_table comparisons);
  write_json "improved_ratio.json"
    (Ratio_report.comparison_to_json comparisons);
  gate
    (if List.for_all (fun c -> c.Ratio_report.c_all_within) comparisons then
       Ok
         (Printf.sprintf
            "every measured worst ratio sits under its own proven bound \
             across %d instances."
            (List.length specs))
     else
       Error
         "a measured worst ratio exceeds its proven competitive ratio — see \
          improved_ratio.json")

(* ------------------------------------------------ Bechamel micro-benchmarks *)

let micro_benchmarks () =
  let open Bechamel in
  let rng0 = Rng.create 99 in
  let dag_small =
    Moldable_workloads.Random_dag.layered ~rng:rng0 ~n_layers:5 ~width:6
      ~edge_prob:0.3 ~kind:Speedup.Kind_general ()
  in
  let dag_large =
    Moldable_workloads.Random_dag.layered ~rng:rng0 ~n_layers:20 ~width:25
      ~edge_prob:0.15 ~kind:Speedup.Kind_amdahl ()
  in
  let chol =
    Moldable_workloads.Linalg.cholesky ~rng:rng0 ~tiles:10
      ~kind:Speedup.Kind_amdahl ()
  in
  let task_probe =
    Task.make ~id:0 (Speedup.General { w = 500.; ptilde = 300; d = 2.; c = 0.1 })
  in
  let tests =
    [
      Test.make ~name:"allocator: Algorithm 2, P=1024"
        (Staged.stage (fun () ->
             ignore
               ((Allocator.algorithm2 ~mu:0.2113).Allocator.allocate ~p:1024
                  task_probe)));
      Test.make ~name:"bounds: A_min/C_min on Cholesky-10 (220 tasks)"
        (Staged.stage (fun () -> ignore (Bounds.compute ~p:256 chol)));
      Test.make
        ~name:
          (Printf.sprintf "schedule: Algorithm 1, %d-task layered DAG, P=64"
             (Dag.n dag_small))
        (Staged.stage (fun () ->
             ignore (Online_scheduler.makespan ~p:64 dag_small)));
      Test.make
        ~name:
          (Printf.sprintf "schedule: Algorithm 1, %d-task layered DAG, P=256"
             (Dag.n dag_large))
        (Staged.stage (fun () ->
             ignore (Online_scheduler.makespan ~p:256 dag_large)));
      Test.make ~name:"theory: Table 1 optimization (4 families)"
        (Staged.stage (fun () -> ignore (Model_bounds.table1_upper ())));
      Test.make ~name:"adversary: equal-split rounds, l=4"
        (Staged.stage (fun () -> ignore (Chain_adversary.equal_split ~ell:4)));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    let raw = Benchmark.all cfg [ instance ] test in
    let ols =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:true
           ~predictors:[| Measure.run |])
        instance raw
    in
    ols
  in
  let grouped = Test.make_grouped ~name:"moldable" ~fmt:"%s/%s" tests in
  let results = benchmark grouped in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] ->
        if ns > 1e6 then Printf.printf "  %-55s %10.3f ms/run\n" name (ns /. 1e6)
        else if ns > 1e3 then
          Printf.printf "  %-55s %10.3f us/run\n" name (ns /. 1e3)
        else Printf.printf "  %-55s %10.1f ns/run\n" name ns
      | _ -> Printf.printf "  %-55s (no estimate)\n" name)
    results

(* -------------------------------------------------------------- Telemetry *)

(* Observability acceptance section: (a) the null registry must not perturb
   the scheduling hot path (schedule-identical, and within a ~2% timing
   budget — reported, not asserted, because wall-clock noise on shared
   runners would make a hard gate flaky; BENCH_scaling.json records the
   numbers either way); (b) a live registry demo exports the snapshot as
   JSON and OpenMetrics artifacts. *)

let telemetry_section () =
  let module R = Moldable_obs.Registry in
  let rng = Rng.create 13_579 in
  let p = 64 in
  let dag =
    Moldable_workloads.Random_dag.layered ~rng ~n_layers:12 ~width:12
      ~edge_prob:0.2 ~kind:Speedup.Kind_amdahl ()
  in
  let run ?registry () =
    Sim_core.run ?registry ~p
      (Online_scheduler.policy ?registry
         ~allocator:Allocator.algorithm2_per_model ~p ())
      dag
  in
  (* Attaching a registry — null or live — must be observation-only. *)
  let live = R.create () in
  let m_default = Schedule.makespan (run ()).Sim_core.schedule in
  let m_null = Schedule.makespan (run ~registry:R.null ()).Sim_core.schedule in
  let m_live = Schedule.makespan (run ~registry:live ()).Sim_core.schedule in
  assert (Float.equal m_default m_null);
  assert (Float.equal m_default m_live);
  let reps = 40 in
  let time_reps f =
    ignore (f ());
    (* warm-up *)
    snd (time ~reps f)
  in
  let t_default = time_reps (fun () -> run ()) in
  let t_null = time_reps (fun () -> run ~registry:R.null ()) in
  let t_live = time_reps (fun () -> run ~registry:(R.create ()) ()) in
  let pct = 100. *. (t_null -. t_default) /. Float.max 1e-9 t_default in
  record "telemetry"
    (Json.Obj
       [
         ("default_s", Json.Num t_default); ("null_s", Json.Num t_null);
         ("live_s", Json.Num t_live); ("null_overhead_pct", Json.Num pct);
       ]);
  Printf.printf
    "per-run cost (%d-task DAG, P=%d, %d reps): default %.6f s, explicit \
     null registry %.6f s (%+.2f%%), live registry %.6f s\n"
    (Dag.n dag) p reps t_default t_null pct t_live;
  if Float.abs pct <= 2. then
    print_string "Null-registry overhead is within the 2% budget.\n"
  else
    Printf.printf
      "note: null-registry delta %+.2f%% is outside the 2%% budget — on a \
       loaded runner this is usually clock noise; the raw numbers land in \
       BENCH_scaling.json under \"telemetry\".\n"
      pct;
  (* Live-registry demo artifacts: the merged snapshot of one run, as the
     JSON schema and as OpenMetrics exposition text. *)
  let snap = R.snapshot live in
  Printf.printf "\nlive registry captured %d metrics from one run\n"
    (List.length snap);
  write_json "telemetry_snapshot.json" (R.snapshot_to_json snap);
  write_artifact "telemetry_openmetrics.txt"
    (Moldable_obs.Openmetrics.of_snapshot snap)

(* ------------------------------------------- BENCH_scaling.json emission *)

let scaling_json () =
  let rows key =
    Json.List
      (List.rev
         (List.filter_map
            (fun (k, v) -> if k = key then Some v else None)
            !scaling_records))
  in
  let probe key =
    Option.value ~default:Json.Null (List.assoc_opt key !scaling_records)
  in
  Json.Obj
    [
      ("jobs", Json.int !jobs_flag);
      ("parallel", rows "parallel");
      ("telemetry", probe "telemetry");
      ( "sections",
        Json.List
          (List.rev_map
             (fun (name, dt) ->
               Json.Obj [ ("name", Json.Str name); ("wall_s", Json.Num dt) ])
             !section_timings) );
      ("alloc_lean", rows "alloc_lean");
      ("service", probe "service");
      ("scaling", rows "scaling");
    ]

(* --------------------------------------------------------- section table *)

type section = { name : string; title : string; run : unit -> unit }

(* Every section, in run order.  --only filters this table by [name]. *)
let sections pool =
  [
    { name = "table1_upper"; run = table1_upper;
      title =
        "Table 1 (upper bounds) — competitive ratios of Algorithm 1, \
         recomputed by numerically minimizing the Lemma 5 ratio over mu \
         (Theorems 1-4)" };
    { name = "table1_lower"; run = table1_lower;
      title =
        "Table 1 (lower bounds) — lower bounds on Algorithm 1's \
         competitiveness (closed forms of Theorems 5-8)" };
    { name = "table1_measured"; run = table1_measured pool;
      title =
        "Table 1 (lower bounds, measured) — Algorithm 1 executed on the \
         adversarial graphs of Figure 1; the ratio vs the constructive \
         offline schedule climbs toward the theorem's limit as P grows" };
    { name = "convergence_plots"; run = convergence_plots pool;
      title =
        "Convergence plots — measured Algorithm 1 ratio on the adversarial \
         instances vs platform scale, against each theorem's limit" };
    { name = "table2"; run = table2;
      title =
        "Table 2 — instances of the scheduling problem (literature \
         classification; static, from the paper's Section 2)" };
    { name = "figure1"; run = figure1;
      title =
        "Figure 1 — the generic adversarial task graph ((X+1)Y+1 tasks), \
         instantiated for each lower-bound theorem" };
    { name = "figure2"; run = figure2;
      title =
        "Figure 2 — schedule shapes on the adversarial graph (communication \
         model, P=16): (a) Algorithm 1 processes layers one after another; \
         (b) the clairvoyant schedule packs A's, B's and C" };
    { name = "figure3"; run = figure3;
      title =
        "Figure 3 — the Theorem 9 chain instance for l=2: K=4, 15 chains in 4 \
         groups, 26 identical tasks with t(p) = 1/(lg p + 1), P = 32" };
    { name = "figure4"; run = figure4;
      title =
        "Figure 4 — schedules of the Figure 3 instance: (a) offline, makespan \
         exactly 1; (b) online equal-allocation against the Lemma 10 \
         adversary, breakpoints t1..t4 (paper: 1/2, 5/6, ~1.07, ~1.23)" };
    { name = "theorem9"; run = theorem9;
      title =
        "Theorem 9 — Omega(ln D) lower bound for any deterministic online \
         algorithm under arbitrary speedups (offline makespan = 1 throughout)" };
    { name = "empirical"; run = empirical pool;
      title =
        "Empirical validation — Algorithm 1 vs baselines on random and \
         realistic workloads (the experimental study the paper's conclusion \
         proposes). Ratios are T / max(A_min/P, C_min); the proven bound caps \
         Algorithm 1 but not the baselines." };
    { name = "independent"; run = independent_section;
      title =
        "Independent moldable tasks (the first row of Table 2): the paper's \
         DAG algorithm vs the classic related-work algorithms — Turek et \
         al.'s offline dual-approximation and the Ye et al.-style \
         canonical-allotment online rule" };
    { name = "mu_sensitivity"; run = mu_sensitivity pool;
      title =
        "Ablation — sensitivity to mu: the theoretical ratio (Lemma 5, \
         minimized over x) and the measured worst ratio on a fixed batch of \
         layered DAGs, as mu sweeps the admissible range" };
    { name = "power_law"; run = power_law_section;
      title =
        "Future work — the Prasanna-Musicus power-law model t(p) = w/p^alpha \
         (one of the 'other common speedup models' of Section 6): Algorithm \
         2's area inflation grows as allocation^(1-alpha), so the ratio vs \
         the Lemma 2 bound grows with P — no constant competitive ratio" };
    { name = "failures"; run = failures_section pool;
      title =
        "Extension — failure-prone execution (the semi-online scenario of \
         Benoit et al. the paper says its results carry over to): Algorithm 1 \
         re-executing failed tasks, expected slowdown ~ 1/(1-q)" };
    { name = "release_times"; run = release_times_section;
      title =
        "Extension — independent moldable tasks released over time (the online \
         setting of Ye et al. and the paper's future work): Poisson arrivals, \
         Algorithm 1 vs min-time list scheduling" };
    { name = "regimes"; run = regimes_section;
      title =
        "Rigid vs moldable vs malleable (the taxonomy of the paper's \
         introduction): externally fixed allocations, Algorithm 1's moldable \
         allocations, and dynamically reallocated execution, on the same \
         workloads (ratios vs the Lemma 2 bound)" };
    { name = "offline"; run = offline_section;
      title =
        "Offline clairvoyant comparison — the best of three critical-path list \
         schedules upper-bounds T_opt more tightly than the Lemma 2 lower \
         bound; the true competitive ratio of Algorithm 1 lies within \
         [T/T_off, T/LB]" };
    { name = "lemmas"; run = lemmas_section;
      title =
        "Proof-framework instrumentation — Lemmas 3, 4 and 5 evaluated on \
         every Algorithm 1 run of a mixed batch (all must hold)" };
    { name = "tracing"; run = tracing_section pool;
      title =
        "Decision-level tracing — allocation provenance, execution spans and \
         ratio accounting on a traced Algorithm 1 run (Tracer.null runs are \
         schedule-identical and pay only a branch per hook)" };
    { name = "scalability"; run = scalability;
      title =
        "Scalability — wall-clock time to build, bound and schedule growing \
         layered DAGs with Algorithm 1 (single core)" };
    { name = "scalability_hot_path"; run = scalability_hot_path pool;
      title =
        "Scalability (hot path) — heap-backed ready queue, one analysis per \
         reveal, vs the seed's sorted-list reference policy, on DAGs up to \
         10^5 tasks and platforms up to P = 10^5.  'per task' is scheduling overhead \
         divided by the number of tasks." };
    { name = "alloc_lean"; run = alloc_lean_section;
      title =
        "Allocation-lean core — flat float-keyed event heap, int-encoded \
         events and a reused run arena vs the boxed reference event loop \
         (run_reference).  Gates: lean runs allocate >= 5x fewer minor words \
         and finish >= 1.5x faster on the 10^5-task workload, with identical \
         schedules." };
    { name = "service"; run = service_section;
      title =
        "Service daemon — the wire protocol end to end over loopback TCP: \
         per-request round-trip latency, pipelined submission throughput, and \
         the drained makespan checked against the local batch run.  Gates: >= \
         10k pipelined submissions/s with zero protocol errors." };
    { name = "parallel_sweep"; run = parallel_sweep pool;
      title =
        Printf.sprintf
          "Parallel sweep — the empirical campaign fanned out over a domain \
           pool (jobs=%d, %d cores available): per-cell Rng.split seeding \
           keeps the outcomes bit-identical to the sequential run"
          (Pool.jobs pool)
          (Domain.recommended_domain_count ()) };
    { name = "exact_oracle"; run = exact_oracle pool;
      title =
        "Exact rational shadow oracle — float scheduler runs replayed \
         comparison-by-comparison in exact arithmetic; divergences must be \
         explained by the documented float tolerances" };
    { name = "improved_ratio"; run = improved_ratio pool;
      title =
        "Improved online algorithm (Perotin & Sun 2023) — proven bounds and \
         measured original-vs-improved ratios on adversarial and random \
         instances" };
    { name = "telemetry"; run = telemetry_section;
      title =
        "Telemetry — null-registry overhead on the scheduling hot path and \
         live registry snapshot/OpenMetrics artifacts" };
    { name = "micro_benchmarks"; run = micro_benchmarks;
      title =
        "Micro-benchmarks (Bechamel) — implementation throughput, monotonic \
         clock, OLS ns/run" };
  ]

let () =
  parse_args (List.map (fun s -> s.name) (sections Pool.sequential));
  Printf.printf
    "Reproduction harness: Online Scheduling of Moldable Task Graphs under \
     Common Speedup Models (ICPP 2022)%s\n"
    (if !jobs_flag > 1 then Printf.sprintf " [jobs=%d]" !jobs_flag else "");
  Pool.with_pool ~jobs:!jobs_flag (fun pool ->
      List.iter
        (fun s ->
          if !only_flag = [] || List.mem s.name !only_flag then begin
            let bar = String.make 72 '=' in
            Printf.printf "\n%s\n%s\n%s\n\n%!" bar s.title bar;
            let (), wall_s = time s.run in
            section_timings := (s.name, wall_s) :: !section_timings
          end)
        (sections pool));
  write_json "BENCH_scaling.json" (scaling_json ());
  Printf.printf "\nAll sections completed.\n"
