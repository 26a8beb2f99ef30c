(* Command-line driver for the moldable-scheduling library.

   Subcommands:
     table1    recompute both rows of Table 1
     figure    regenerate a figure (1-4) on stdout (DOT / Gantt)
     theorem9  the Omega(ln D) scaling table
     simulate  generate a workload, schedule it, report and/or draw it
     trace     run with decision-level tracing (provenance, Chrome trace,
               Gantt, ratio accounting, self-profile)
     verify    run Algorithm 1 and check the Lemma 3/4/5 inequalities
     sweep     compare policies over random instances
     metrics   pretty-print a --telemetry snapshot (or emit OpenMetrics) *)

open Cmdliner
open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_util
open Moldable_core
open Moldable_theory
open Moldable_adversary
open Moldable_analysis

(* ------------------------------------------------------- shared arguments *)

let kind_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "roofline" -> Ok Speedup.Kind_roofline
    | "communication" | "comm" -> Ok Speedup.Kind_communication
    | "amdahl" -> Ok Speedup.Kind_amdahl
    | "general" -> Ok Speedup.Kind_general
    | "power" -> Ok Speedup.Kind_power
    | other -> Error (`Msg (Printf.sprintf "unknown speedup model %S" other))
  in
  Arg.conv (parse, fun ppf k -> Format.fprintf ppf "%s" (Speedup.kind_name k))

let kind_arg =
  Arg.(
    value
    & opt kind_conv Speedup.Kind_general
    & info [ "m"; "model" ] ~docv:"MODEL"
        ~doc:"Speedup model: roofline, communication, amdahl, general or power.")

(* An integer in [lo, hi]; anything else is a usage error (exit 2). *)
let int_in ~lo ~hi =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok v when v < lo || v > hi ->
      let range =
        if hi = max_int then Printf.sprintf ">= %d" lo
        else Printf.sprintf "in %d-%d" lo hi
      in
      Error (`Msg (Printf.sprintf "value must be %s (got %d)" range v))
    | r -> r
  in
  Arg.conv (parse, Format.pp_print_int)

let pos_int = int_in ~lo:1 ~hi:max_int

(* A finite float > 0; anything else is a usage error (exit 2). *)
let pos_float =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok v when not (Float.is_finite v && v > 0.) ->
      Error (`Msg (Printf.sprintf "value must be finite and > 0 (got %s)" s))
    | r -> r
  in
  Arg.conv (parse, Format.pp_print_float)

let p_arg default =
  Arg.(
    value & opt pos_int default
    & info [ "p"; "procs" ] ~docv:"P" ~doc:"Number of processors.")

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"PRNG seed (runs are reproducible).")

let jobs_arg =
  Arg.(
    value & opt pos_int 1
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:
          "Worker domains for the parallel parts (policy sweeps fan out per \
           (policy, instance) cell, large schedules validate in parallel). \
           Results are bit-identical at any job count; 1 (the default) is \
           fully sequential.")

(* Exit-code contract: usage errors exit 2 (cmdliner's, see the bottom of
   this file), runtime failures 125 through [fail], failed checks 1. *)
let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 125) fmt

(* Every file the CLI writes goes through here.  The explicit flush
   surfaces a failed write, which [with_open_text]'s close would drop. *)
let write_output ?(note = "") path contents =
  match
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc contents;
        Out_channel.flush oc)
  with
  | () -> Printf.printf "wrote %s%s\n" path note
  | exception Sys_error e -> fail "cannot write %s: %s" path e

(* ----------------------------------------------------------- telemetry *)

let telemetry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"FILE"
        ~doc:
          "Attach a live telemetry registry to the run and write the merged \
           snapshot to $(docv) as JSON (schema moldable_obs/snapshot/v1): \
           simulation counters, allocator Step-1 probe histogram, pool \
           gauges/latency and GC gauges.  Use the $(b,metrics) subcommand \
           to pretty-print or convert the snapshot to OpenMetrics.")

let registry_of_telemetry = function
  | None -> Moldable_obs.Registry.null
  | Some _ -> Moldable_obs.Registry.create ()

(* Finish a telemetry run: fold the process-GC delta into the registry as
   gauges, snapshot, and write the JSON document. *)
let write_telemetry ~registry ~gc_before = function
  | None -> ()
  | Some path ->
    let gc_after = Moldable_obs.Gc_sample.read () in
    Moldable_obs.Gc_sample.observe registry
      (Moldable_obs.Gc_sample.diff ~before:gc_before ~after:gc_after);
    let snap = Moldable_obs.Registry.snapshot registry in
    write_output path
      (Moldable_obs.Json.to_string (Moldable_obs.Registry.snapshot_to_json snap)
      ^ "\n")

let algorithm_conv =
  Arg.enum [ ("original", `Original); ("improved", `Improved) ]

let algorithm_arg =
  Arg.(
    value
    & opt algorithm_conv `Original
    & info [ "a"; "algorithm" ] ~docv:"ALGO"
        ~doc:
          "Online algorithm: $(b,original) (ICPP 2022 Algorithm 1 with \
           per-model mu) or $(b,improved) (Perotin-Sun 2023 with decoupled \
           per-model (mu, rho)).")

let allocator_of = function
  | `Original -> Allocator.algorithm2_per_model
  | `Improved -> Improved_alloc.per_model

let proven_bound_of algo kind =
  match algo with
  | `Original -> Ratio_report.table1_upper_bound kind
  | `Improved -> Ratio_report.improved_upper_bound kind

let workloads =
  [
    ("layered", `Layered); ("erdos", `Erdos); ("independent", `Independent);
    ("chain", `Chain); ("fork-join", `Fork_join); ("cholesky", `Cholesky);
    ("lu", `Lu); ("montage", `Montage); ("epigenomics", `Epigenomics);
    ("cybershake", `Cybershake); ("ligo", `Ligo);
  ]

let workload_arg =
  Arg.(
    value & opt (enum workloads) `Layered
    & info [ "w"; "workload" ] ~docv:"WORKLOAD"
        ~doc:("Workload family: " ^ doc_alts_enum workloads ^ "."))

let size_arg =
  Arg.(
    value
    & opt (int_in ~lo:0 ~hi:max_int) 40
    & info [ "n"; "size" ] ~docv:"N"
        ~doc:
          "Workload size (task count target / tiles / width), >= 0; a size \
           the workload's generator cannot build (such as chain with 0 or \
           montage with 1) is a usage error.")

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

let generate which ~rng ~n ~kind =
  match which with
  | `Layered ->
    Moldable_workloads.Random_dag.layered ~rng ~n_layers:(max 2 (n / 8))
      ~width:8 ~edge_prob:0.3 ~kind ()
  | `Erdos ->
    Moldable_workloads.Random_dag.erdos_renyi ~rng ~n ~edge_prob:0.1 ~kind ()
  | `Independent -> Moldable_workloads.Random_dag.independent ~rng ~n ~kind ()
  | `Chain -> Moldable_workloads.Structured.chain ~rng ~n ~kind ()
  | `Fork_join ->
    Moldable_workloads.Structured.fork_join ~rng ~stages:(max 1 (n / 10))
      ~width:8 ~kind ()
  | `Cholesky ->
    Moldable_workloads.Linalg.cholesky ~rng ~tiles:(max 2 (n / 10)) ~kind ()
  | `Lu -> Moldable_workloads.Linalg.lu ~rng ~tiles:(max 2 (n / 10)) ~kind ()
  | `Montage -> Moldable_workloads.Scientific.montage ~rng ~width:n ~kind ()
  | `Epigenomics ->
    Moldable_workloads.Scientific.epigenomics ~rng ~lanes:4
      ~fanout:(max 1 (n / 4)) ~kind ()
  | `Cybershake ->
    Moldable_workloads.Scientific.cybershake ~rng ~sites:(max 1 (n / 10))
      ~variations:8 ~kind ()
  | `Ligo ->
    Moldable_workloads.Scientific.ligo ~rng ~blocks:(max 1 (n / 12))
      ~per_block:10 ~kind ()

(* A size the generator rejects is a usage error (exit 2); the generator
   owns its minimum. *)
let make_workload which ~rng ~n ~kind =
  match generate which ~rng ~n ~kind with
  | dag -> dag
  | exception Invalid_argument msg ->
    Printf.eprintf "-n %d: workload %s: %s\n" n (workload_name which) msg;
    exit 2

let load_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "load" ] ~docv:"FILE"
        ~doc:
          "Load the task graph from $(docv) (Dag_io format) instead of \
           generating one.")

let swf_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "swf" ] ~docv:"TRACE"
        ~doc:
          "Replay a Standard Workload Format trace: jobs become independent \
           moldable tasks released at their submit times.")

type input = { dag : Dag.t; releases : float array option; name : string }

(* The one way a subcommand gets its graph: generated, [--load]ed or
   replayed from an SWF trace ([--swf], with release times); [name], the
   workload or the file's base name, labels ratio reports.  Giving both
   files is a usage error (exit 2); a file that cannot be read or holds no
   usable job is a runtime failure (exit 125). *)
let read_input ~kind ~seed ~workload ~n ~load ~swf =
  let rng = Rng.create seed in
  match (load, swf) with
  | Some _, Some _ ->
    prerr_endline "--load and --swf are mutually exclusive";
    exit 2
  | Some path, None -> (
    match Dag_io.of_file path with
    | Ok dag -> { dag; releases = None; name = Filename.basename path }
    | Error e -> fail "cannot load %s: %s" path e)
  | None, Some path -> (
    match Moldable_workloads.Swf.parse_file path with
    | Ok { Moldable_workloads.Swf.jobs = []; _ } ->
      fail "trace %s contains no usable jobs" path
    | Ok { Moldable_workloads.Swf.jobs; skipped_lines } ->
      if skipped_lines > 0 then
        Printf.printf "note: skipped %d unusable record(s) in %s\n"
          skipped_lines path;
      let dag, releases = Moldable_workloads.Swf.to_workload ~rng jobs in
      { dag; releases = Some releases; name = Filename.basename path }
    | Error e -> fail "cannot parse %s: %s" path e)
  | None, None ->
    {
      dag = make_workload workload ~rng ~n ~kind;
      releases = None;
      name = workload_name workload;
    }

(* ---------------------------------------------------------------- table1 *)

let table1_cmd =
  let run () =
    let tab =
      Texttab.create ~headers:[ "model"; "upper (ours)"; "paper"; "lower (ours)"; "paper" ]
    in
    let uppers = Model_bounds.table1_upper () in
    let lowers = Lower_bounds.table1_lower () in
    List.iter2
      (fun (u : Model_bounds.row) (l : Lower_bounds.row) ->
        Texttab.add_row tab
          [
            Model_bounds.family_name u.Model_bounds.family;
            Printf.sprintf "%.4f" u.Model_bounds.ratio;
            Printf.sprintf "%.2f" u.Model_bounds.paper_ratio;
            Printf.sprintf "%.4f" l.Lower_bounds.bound;
            Printf.sprintf "%.2f" l.Lower_bounds.paper_bound;
          ])
      uppers lowers;
    Texttab.print tab
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Recompute both rows of Table 1.")
    Term.(const run $ const ())

(* ---------------------------------------------------------------- figure *)

let figure_cmd =
  let run n p =
    match n with
    | 1 ->
      let inst = Instances.communication ~p:(max 12 p) in
      print_string (Moldable_viz.Dot.of_dag ~name:"figure1" inst.Instances.dag)
    | 2 ->
      let inst = Instances.communication ~p:(max 12 (min p 64)) in
      let online = Instances.run_online inst in
      let label i = (Dag.task inst.Instances.dag i).Task.label in
      Printf.printf "(a) Algorithm 1:\n%s\n"
        (Moldable_viz.Gantt.render ~width:72 ~legend:false ~label
           online.Sim_core.schedule);
      Printf.printf "(b) clairvoyant alternative:\n%s"
        (Moldable_viz.Gantt.render ~width:72 ~legend:false ~label
           inst.Instances.alternative)
    | 3 ->
      let inst = Chains.build ~ell:2 in
      print_string (Moldable_viz.Dot.of_dag ~name:"figure3" inst.Chains.dag)
    | _ ->
      (* 4: the converter admits 1-4 only. *)
      let inst = Chains.build ~ell:2 in
      let off = Chain_adversary.offline_schedule inst in
      let eq = Chain_adversary.equal_split_schedule inst in
      Printf.printf "(a) offline, makespan %.4f:\n%s\n" (Schedule.makespan off)
        (Moldable_viz.Gantt.render ~width:72 ~max_rows:16 ~legend:false off);
      Printf.printf "(b) online equal-allocation, makespan %.4f:\n%s"
        (Schedule.makespan eq)
        (Moldable_viz.Gantt.render ~width:72 ~max_rows:16 ~legend:false eq)
  in
  let n_arg =
    Arg.(
      required
      & pos 0 (some (int_in ~lo:1 ~hi:4)) None
      & info [] ~docv:"N" ~doc:"Figure number (1-4).")
  in
  Cmd.v
    (Cmd.info "figure" ~doc:"Regenerate a figure of the paper on stdout.")
    Term.(const run $ n_arg $ p_arg 16)

(* -------------------------------------------------------------- theorem9 *)

let theorem9_cmd =
  let run () =
    let tab =
      Texttab.create
        ~headers:[ "l"; "K"; "ln K - ln l - 1/l"; "Lemma 10 sum"; "equal-split" ]
    in
    List.iter
      (fun ell ->
        let params = Arbitrary_lb.params ~ell in
        Texttab.add_row tab
          [
            string_of_int ell;
            string_of_int params.Arbitrary_lb.k;
            Printf.sprintf "%.3f" (Arbitrary_lb.log_gap ~ell);
            Printf.sprintf "%.3f" (Arbitrary_lb.adversary_gap_sum ~ell);
            Printf.sprintf "%.3f"
              (Chain_adversary.equal_split ~ell).Chain_adversary.makespan;
          ])
      [ 1; 2; 3; 4; 5 ];
    Texttab.print tab
  in
  Cmd.v
    (Cmd.info "theorem9" ~doc:"The Omega(ln D) lower-bound scaling table.")
    Term.(const run $ const ())

(* -------------------------------------------------------------- simulate *)

let simulate_cmd =
  let run kind p seed workload n gantt svg load save swf metrics_out algo jobs
      telemetry =
    let registry = registry_of_telemetry telemetry in
    let gc_before = Moldable_obs.Gc_sample.read () in
    Pool.with_pool ~jobs ~registry @@ fun pool ->
    let { dag; releases; _ } = read_input ~kind ~seed ~workload ~n ~load ~swf in
    Option.iter
      (fun path ->
        match Dag_io.to_file path dag with
        | Ok () -> Printf.printf "saved graph to %s\n" path
        | Error e -> fail "cannot save %s: %s" path e)
      save;
    let result =
      Sim_core.run ?release_times:releases ~registry ~p
        (Online_scheduler.policy ~registry ~allocator:(allocator_of algo) ~p
           ())
        dag
    in
    Validate.check_exn ~pool ~dag result.Sim_core.schedule;
    let bounds = Bounds.compute ~p dag in
    let makespan = Schedule.makespan result.Sim_core.schedule in
    Printf.printf "%s\n" (Format.asprintf "%a" Dag.pp_stats dag);
    Printf.printf "%s\n" (Format.asprintf "%a" Bounds.pp bounds);
    Printf.printf "makespan %.4f  ratio-vs-LB %.4f  avg-utilization %.1f%%\n"
      makespan
      (makespan /. bounds.Bounds.lower_bound)
      (100. *. Schedule.average_utilization result.Sim_core.schedule);
    Printf.printf "%s\n"
      (Format.asprintf "%a" Metrics.pp result.Sim_core.metrics);
    Option.iter
      (fun path ->
        write_output path
          (Moldable_obs.Json.to_string (Metrics.to_json result.Sim_core.metrics)
          ^ "\n"))
      metrics_out;
    let label i = (Dag.task dag i).Task.label in
    if gantt then
      print_string
        (Moldable_viz.Gantt.render ~width:100 ~label result.Sim_core.schedule);
    Option.iter
      (fun path ->
        write_output path
          (Moldable_viz.Svg.of_schedule ~label result.Sim_core.schedule))
      svg;
    write_telemetry ~registry ~gc_before telemetry
  in
  let gantt_arg =
    Arg.(value & flag & info [ "gantt" ] ~doc:"Print an ASCII Gantt chart.")
  in
  let svg_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "svg" ] ~docv:"FILE" ~doc:"Write the schedule as SVG to $(docv).")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Write the task graph to $(docv).")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write the run's instrumentation report (counters, utilization \
             timeline, queue depth, per-task waits) as JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Generate (or load) a workload, run the selected online algorithm \
          on it and report.")
    Term.(
      const run $ kind_arg $ p_arg 64 $ seed_arg $ workload_arg $ size_arg
      $ gantt_arg $ svg_arg $ load_arg $ save_arg $ swf_arg $ metrics_arg
      $ algorithm_arg $ jobs_arg $ telemetry_arg)

(* ----------------------------------------------------------------- trace *)

let trace_cmd =
  let run kind p seed workload n load chrome gantt explain algo jobs =
    Pool.with_pool ~jobs @@ fun pool ->
    let { dag; name; _ } =
      read_input ~kind ~seed ~workload ~n ~load ~swf:None
    in
    let label i = (Dag.task dag i).Task.label in
    let tracer = Moldable_sim.Tracer.create () in
    let result =
      Online_scheduler.run ~allocator:(allocator_of algo) ~tracer
        ~p dag
    in
    Validate.check_exn ~pool ~dag result.Sim_core.schedule;
    let makespan = Schedule.makespan result.Sim_core.schedule in
    Printf.printf "%s\n" (Format.asprintf "%a" Dag.pp_stats dag);
    Printf.printf "%s\n"
      (Format.asprintf "%a" Metrics.pp result.Sim_core.metrics);
    let entry =
      Ratio_report.of_run
        ~proven_bound:(proven_bound_of algo (Ratio_report.kind_of_dag dag))
        ~workload:name ~p ~makespan dag
    in
    Printf.printf "%s\n" (Format.asprintf "%a" Ratio_report.pp_entry entry);
    Printf.printf
      "trace: %d decision records, %d execution spans, %d instants\n"
      (Moldable_sim.Tracer.n_decisions tracer)
      result.Sim_core.n_attempts
      (List.length (Moldable_sim.Tracer.instants tracer));
    Printf.printf "self-profile:\n%s"
      (Format.asprintf "%a" Moldable_sim.Tracer.pp_profile tracer);
    Option.iter
      (fun path ->
        write_output path
          ~note:" (open in chrome://tracing or https://ui.perfetto.dev)"
          (Moldable_viz.Chrome_trace.of_run ~label tracer
             result.Sim_core.metrics))
      chrome;
    Option.iter
      (fun path ->
        write_output path
          (Moldable_viz.Svg.of_schedule ~label result.Sim_core.schedule))
      gantt;
    match explain with
    | None -> ()
    | Some tid -> (
      match Moldable_sim.Tracer.decision_for tracer tid with
      | Some d ->
        Printf.printf "\n%s"
          (Format.asprintf "%a" Moldable_sim.Tracer.pp_decision d)
      | None ->
        Printf.eprintf "no decision record for task %d (graph has %d tasks)\n"
          tid (Dag.n dag);
        exit 2)
  in
  let chrome_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Write the execution trace as Chrome trace-event JSON to $(docv) \
             (loads in chrome://tracing and Perfetto: one lane per \
             processor block, counter tracks for free processors and queue \
             depth).")
  in
  let gantt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "gantt" ] ~docv:"FILE"
          ~doc:"Write the traced schedule as a Gantt SVG to $(docv).")
  in
  let explain_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "explain" ] ~docv:"TASK"
          ~doc:
            "Print the allocation-provenance record of task $(docv): \
             p_max/t_min/a_min, the Step-1 initial allocation with its \
             alpha/beta ratios and candidates scanned, the beta budget \
             delta(mu), and whether the ceil(mu P) cap bit.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the selected online algorithm with decision-level tracing: \
          allocation provenance per task, Chrome trace-event / Gantt \
          export, ratio accounting vs the Lemma 2 bound, and a \
          self-profile.")
    Term.(
      const run $ kind_arg $ p_arg 64 $ seed_arg $ workload_arg $ size_arg
      $ load_arg $ chrome_arg $ gantt_arg $ explain_arg $ algorithm_arg
      $ jobs_arg)

(* ---------------------------------------------------------------- verify *)

let verify_cmd =
  let run kind p seed workload n =
    let rng = Rng.create seed in
    let dag = make_workload workload ~rng ~n ~kind in
    let mu = Mu.default kind in
    let sched =
      (Online_scheduler.run ~allocator:(Allocator.algorithm2 ~mu) ~p dag)
        .Sim_core.schedule
    in
    Validate.check_exn ~dag sched;
    let report = Lemmas.verify ~mu ~dag sched in
    Format.printf "%a@." Lemmas.pp report;
    if not report.Lemmas.all_hold then exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Run Algorithm 1 and check the Lemma 3/4/5 inequalities of the \
          analysis on the schedule.")
    Term.(const run $ kind_arg $ p_arg 64 $ seed_arg $ workload_arg $ size_arg)

(* ----------------------------------------------------------------- sweep *)

let sweep_cmd =
  let run kind p seed reps algo jobs telemetry =
    let registry = registry_of_telemetry telemetry in
    let gc_before = Moldable_obs.Gc_sample.read () in
    Pool.with_pool ~jobs ~registry @@ fun pool ->
    (* All instances are generated before the fan-out, so the sweep result
       is independent of the job count. *)
    let rng = Rng.create seed in
    let dags =
      List.init reps (fun _ ->
          Moldable_workloads.Random_dag.layered ~rng ~n_layers:6 ~width:8
            ~edge_prob:0.25 ~kind ())
    in
    let lead =
      match algo with
      | `Original -> Experiment.algorithm1_fixed_mu (Mu.default kind)
      | `Improved -> Experiment.improved
    in
    let policies = lead :: List.tl Experiment.default_policies in
    let outcomes =
      Experiment.evaluate ~pool ~registry ~p ~workload:"layered" ~policies
        dags
    in
    let bound =
      (* Power-law graphs carry no guarantee; keep the general-model bound
         as the reference line like the original sweep always did. *)
      match kind with
      | Speedup.Kind_power | Speedup.Kind_arbitrary ->
        proven_bound_of algo Speedup.Kind_general
      | k -> proven_bound_of algo k
    in
    print_string (Report.table ~bound outcomes);
    write_telemetry ~registry ~gc_before telemetry
  in
  let reps_arg =
    Arg.(
      value & opt pos_int 20
      & info [ "r"; "reps" ] ~docv:"R" ~doc:"Number of random instances.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Compare the selected online algorithm against the baselines on \
          random instances.")
    Term.(
      const run $ kind_arg $ p_arg 64 $ seed_arg $ reps_arg $ algorithm_arg
      $ jobs_arg $ telemetry_arg)

(* --------------------------------------------------------------- metrics *)

let metrics_cmd =
  let run file openmetrics =
    let contents =
      match In_channel.with_open_text file In_channel.input_all with
      | s -> s
      | exception Sys_error e -> fail "cannot read %s: %s" file e
    in
    let snap =
      match Moldable_obs.Json.of_string contents with
      | Error e -> fail "%s: invalid JSON: %s" file e
      | Ok j -> (
        match Moldable_obs.Registry.snapshot_of_json j with
        | Error e -> fail "%s: %s" file e
        | Ok snap -> snap)
    in
    if openmetrics then
      print_string (Moldable_obs.Openmetrics.of_snapshot snap)
    else begin
      let tab = Texttab.create ~headers:Moldable_obs.Registry.row_header in
      List.iter (Texttab.add_row tab) (Moldable_obs.Registry.to_rows snap);
      Texttab.print tab
    end
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Telemetry snapshot written by --telemetry (JSON).")
  in
  let openmetrics_arg =
    Arg.(
      value & flag
      & info [ "openmetrics" ]
          ~doc:
            "Emit the snapshot in OpenMetrics/Prometheus text exposition \
             format instead of a table.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Pretty-print a telemetry snapshot (or convert it to OpenMetrics).")
    Term.(const run $ file_arg $ openmetrics_arg)

(* ----------------------------------------------------------------- serve *)

(* The daemon and its client speak the line-delimited JSON protocol of
   lib/service; runtime failures (bind/connect refused) exit 125 per the
   CLI exit-code contract, schedule divergence in the client exits 1. *)

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"TCP host to bind/connect to.")

let port_arg =
  Arg.(
    value & opt int 7464
    & info [ "port" ] ~docv:"PORT"
        ~doc:"TCP port (0 binds an ephemeral port and prints it).")

let socket_arg =
  Arg.(
    value & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Serve/connect on a Unix-domain socket instead of TCP.")

let serve_cmd =
  let run host port socket sessions idle_timeout max_line =
    let registry = Moldable_obs.Registry.create () in
    let config =
      {
        Moldable_service.Server.sessions;
        limits =
          {
            Moldable_service.Server.default_limits with
            idle_timeout;
            max_line_bytes = max_line;
          };
        registry;
      }
    in
    let listener =
      match socket with
      | Some path -> Moldable_service.Server.listen_unix ~path
      | None -> Moldable_service.Server.listen_tcp ~host ~port
    in
    match listener with
    | Error e -> fail "moldable serve: cannot listen: %s" e
    | Ok listener ->
      let stop = Atomic.make false in
      let on_signal = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
      Sys.set_signal Sys.sigterm on_signal;
      Sys.set_signal Sys.sigint on_signal;
      Printf.printf "listening on %s\n%!"
        (Moldable_service.Server.address listener);
      Moldable_service.Server.serve ~stop config listener;
      Printf.printf "drained, shutting down\n%!"
  in
  let sessions_arg =
    Arg.(
      value & opt pos_int 2
      & info [ "sessions" ] ~docv:"N"
          ~doc:"Concurrent session workers (also worker domains).")
  in
  let idle_arg =
    Arg.(
      value & opt pos_float 300.
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Close a session after this long without a request.")
  in
  let max_line_arg =
    Arg.(
      value & opt pos_int (1 lsl 20)
      & info [ "max-line" ] ~docv:"BYTES"
          ~doc:"Longest accepted request line.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the scheduler daemon: line-delimited JSON over TCP or a Unix \
          socket, one simulation session per connection (submit moldable \
          tasks online, advance the virtual clock, drain, read the \
          schedule back).  SIGTERM drains gracefully.")
    Term.(
      const run $ host_arg $ port_arg $ socket_arg $ sessions_arg $ idle_arg
      $ max_line_arg)

(* ---------------------------------------------------------------- client *)

let client_cmd =
  let run host port socket kind p seed workload n load swf algo priority
      openmetrics =
    let { dag; releases; _ } = read_input ~kind ~seed ~workload ~n ~load ~swf in
    let conn =
      match socket with
      | Some path -> Moldable_service.Client.connect_unix ~path ()
      | None -> Moldable_service.Client.connect_tcp ~host ~port ()
    in
    match conn with
    | Error e -> fail "moldable client: cannot connect: %s" e
    | Ok conn -> (
      let finish code =
        ignore
          (Moldable_service.Client.rpc conn Moldable_service.Protocol.Close
            : (_, _) result);
        Moldable_service.Client.close conn;
        exit code
      in
      match
        Moldable_service.Client.replay ?release_times:releases
          ~algorithm:algo ~priority ~p conn dag
      with
      | Error e ->
        Moldable_service.Client.close conn;
        fail "moldable client: %s" e
      | Ok report ->
        Printf.printf "server makespan %.4f\n"
          report.Moldable_service.Client.server_makespan;
        Printf.printf "local makespan %.4f\n"
          report.Moldable_service.Client.local_makespan;
        if openmetrics then (
          match Moldable_service.Client.fetch_metrics conn with
          | Ok om -> print_string om
          | Error e ->
            Printf.eprintf "moldable client: cannot fetch metrics: %s\n" e;
            finish 125);
        if report.Moldable_service.Client.identical then begin
          Printf.printf "schedules identical: yes (%d tasks)\n"
            report.Moldable_service.Client.n_tasks;
          finish 0
        end
        else begin
          Printf.printf "schedules identical: no\n";
          Printf.eprintf "divergence: %s\n"
            (Option.value ~default:"?"
               report.Moldable_service.Client.mismatch);
          finish 1
        end)
  in
  let priority_arg =
    Arg.(
      value & opt string "fifo"
      & info [ "priority" ] ~docv:"RULE"
          ~doc:
            "Waiting-queue priority rule: fifo, longest-first, \
             largest-area-first, widest-first or narrowest-first.")
  in
  let openmetrics_arg =
    Arg.(
      value & flag
      & info [ "openmetrics" ]
          ~doc:"Also scrape the server registry and print the OpenMetrics \
                exposition.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Replay a workload against a running scheduler daemon and diff the \
          returned schedule against a local simulation of the identical \
          configuration (exit 0 when bit-identical, 1 on divergence).")
    Term.(
      const run $ host_arg $ port_arg $ socket_arg $ kind_arg $ p_arg 64
      $ seed_arg $ workload_arg $ size_arg $ load_arg $ swf_arg
      $ algorithm_arg $ priority_arg $ openmetrics_arg)

let () =
  let info =
    Cmd.info "moldable"
      ~doc:
        "Online scheduling of moldable task graphs (ICPP 2022 reproduction)."
  in
  let group =
    Cmd.group info
      [ table1_cmd; figure_cmd; theorem9_cmd; simulate_cmd; trace_cmd;
        verify_cmd; sweep_cmd; metrics_cmd; serve_cmd; client_cmd ]
  in
  (* Conventional exit codes: usage errors (unknown subcommand, unknown
     flag, unparsable option value) exit 2, uncaught exceptions 125 —
     cmdliner's defaults (124/125) surprise shell scripts and CI. *)
  exit
    (match Cmd.eval_value group with
    | Ok (`Ok ()) | Ok `Help | Ok `Version -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 125)
