(* Workload sweep_mixed: one campaign is [Experiment.evaluate] (validation
   on) at P = 256 over about a thousand (policy x instance) cells, fanned
   out on a [Pool] of one job per core.  Instances are small — layered
   random DAGs and tiled Cholesky graphs of each closed-form model, plus
   the Theorem-9 chains with arbitrary speedups — so the pool, task
   analysis, the Step-1 search, validation and the lower bounds carry the
   cost rather than the ready queue. *)

open Moldable_util
open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_workloads
open Moldable_analysis

let p = 256
let layered_per_kind = 32
let cholesky_per_kind = 8

let kinds =
  [
    Speedup.Kind_roofline;
    Speedup.Kind_communication;
    Speedup.Kind_amdahl;
    Speedup.Kind_general;
  ]

let policies =
  match Experiment.default_policies with
  | alg1 :: baselines -> alg1 :: Experiment.improved :: baselines
  | [] -> assert false

(* A group of instances evaluated together, with the policies that accept
   its speedup model. *)
type group = {
  name : string;
  dags : Dag.t list;
  specs : Experiment.policy_spec list;
}

let accepts spec dag =
  match Experiment.run_one ~p spec dag with
  | _ -> true
  | exception (Invalid_argument _ | Failure _ | Sim_core.Policy_error _) ->
    false

let make_groups seed =
  let rng = Rng.create seed in
  let closed =
    List.concat_map
      (fun kind ->
        let kn = Speedup.kind_name kind in
        let layered =
          List.init layered_per_kind (fun _ ->
              Random_dag.layered ~rng ~n_layers:9 ~width:28
                ~edge_prob:0.15 ~kind ())
        in
        let cholesky =
          List.init cholesky_per_kind (fun i ->
              Linalg.cholesky ~rng ~tiles:(4 + (i mod 4)) ~kind ())
        in
        [
          { name = "layered-" ^ kn; dags = layered; specs = policies };
          { name = "cholesky-" ^ kn; dags = cholesky; specs = policies };
        ])
      kinds
  in
  let chains =
    List.map (fun ell -> (Moldable_adversary.Chains.build ~ell).Moldable_adversary.Chains.dag) [ 2; 3 ]
  in
  let chain_specs =
    List.filter (fun s -> List.for_all (accepts s) chains) policies
  in
  closed @ [ { name = "chains-arbitrary"; dags = chains; specs = chain_specs } ]

let n_cells groups =
  List.fold_left
    (fun a g -> a + (List.length g.dags * List.length g.specs))
    0 groups

let campaign pool groups =
  List.concat_map
    (fun g ->
      Experiment.evaluate ~validate:true ~pool ~p ~workload:g.name
        ~policies:g.specs g.dags)
    groups

let timed_campaign pool groups =
  let g0 = Mono.gc () in
  let t0 = Mono.now () in
  let o = campaign pool groups in
  let dt = Mono.seconds_since t0 in
  (o, dt, Mono.gc_diff g0 (Mono.gc ()))

let jobs = max 1 (Domain.recommended_domain_count ())

(* Input generation, pool start and one warm-up campaign, repeated; the
   last pool stays up. *)
let setup ~seed ~reps =
  let samples = Array.make reps 0. in
  let last = ref None in
  for k = 0 to reps - 1 do
    Option.iter (fun (pool, _) -> Pool.shutdown pool) !last;
    let t0 = Mono.now () in
    let groups = make_groups seed in
    let pool = Pool.create ~jobs () in
    ignore (Sys.opaque_identity (campaign pool groups));
    samples.(k) <- Mono.seconds_since t0;
    last := Some (pool, groups)
  done;
  let pool, groups = Option.get !last in
  (pool, groups, samples)

(* Proven ratios: Table 1 for Algorithm 1, arXiv:2304.14127 for the
   improved allocator; infinite (unchecked) for arbitrary speedups. *)
let check_outcomes r groups outcomes reference =
  Outcome.check r "sweep_mixed.equal_to_jobs_1"
    (List.length outcomes = List.length reference
    && List.for_all2 Experiment.equal_outcome outcomes reference);
  let kind_of = Hashtbl.create 16 in
  List.iter
    (fun g ->
      match g.dags with
      | d :: _ -> Hashtbl.replace kind_of g.name (Ratio_report.kind_of_dag d)
      | [] -> ())
    groups;
  let within = ref true and checked = ref 0 in
  List.iter
    (fun (o : Experiment.outcome) ->
      let kind = Hashtbl.find kind_of o.Experiment.workload in
      let bound =
        if o.Experiment.policy = Experiment.algorithm1.Experiment.label then
          Ratio_report.table1_upper_bound kind
        else if o.Experiment.policy = Experiment.improved.Experiment.label then
          Ratio_report.improved_upper_bound kind
        else infinity
      in
      if Float.is_finite bound then
        List.iter
          (fun ratio ->
            incr checked;
            if not (ratio <= bound *. (1. +. 1e-9)) then within := false)
          o.Experiment.ratios)
    outcomes;
  Outcome.check r
    (Printf.sprintf "sweep_mixed.ratios_within_proven_bounds (%d)" !checked)
    (!within && !checked > 0)

let untraced r ~seed ~seconds =
  let pool, groups, setup_samples = setup ~seed ~reps:5 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Outcome.metric r ~n:5 "setup_s" "s" (Mono.median setup_samples);
  let cells = n_cells groups in
  let times = ref [] and last = ref [] in
  let t_end = Mono.now () + int_of_float (seconds *. 1e9) in
  while Mono.now () < t_end || List.length !times < 3 do
    let o, dt, _ = timed_campaign pool groups in
    times := dt :: !times;
    last := o
  done;
  let times = Array.of_list !times in
  let n = Array.length times in
  Outcome.ops r ~attempted:(n * cells) ~failed:0;
  check_outcomes r groups !last (campaign Pool.sequential groups);
  let med = Mono.median times in
  Outcome.metric r ~n "throughput_per_s" "1/s" (float_of_int cells /. med);
  Outcome.metric r "peak_heap_mb" "MB" (Mono.peak_heap_mb ());
  Outcome.metric r ~n "lat_p50_us" "us" (med *. 1e6);
  let tail_q, tail = Mono.tail times in
  Outcome.metric r ~n "lat_tail_us" "us" (tail *. 1e6);
  Outcome.extra r ~n "cells_per_s" "1/s" (float_of_int cells /. med);
  Outcome.note r
    "one operation = one campaign of %d cells on %d jobs at P = %d; lat_tail_us is p%g of %d campaigns"
    cells jobs p tail_q n

(* ------------------------------------------------------------- traced *)

let all_cells groups =
  Array.of_list
    (List.concat_map
       (fun g -> List.concat_map (fun s -> List.map (fun d -> (s, d)) g.dags) g.specs)
       groups)

let sp_cell = lazy (Mono.Span.intern "analysis.cell")
let sp_run = lazy (Mono.Span.intern "sim.run")
let sp_validate = lazy (Mono.Span.intern "sim.validate")
let sp_bounds = lazy (Mono.Span.intern "graph.bounds")

type parts = {
  mutable run_ns : int;
  mutable validate_ns : int;
  mutable bounds_ns : int;
  mutable tasks : int;
  cell_ms : float array;
}

(* One sequential pass over every cell, timing its three parts: the lean
   simulation, [Validate.check] and [Bounds.compute]. *)
let decompose ?probe ?(replay : (Layers.replay * Layers.event_replay) option) cells =
  let parts =
    { run_ns = 0; validate_ns = 0; bounds_ns = 0; tasks = 0;
      cell_ms = Array.make (Array.length cells) 0. }
  in
  let arena = Sim_core.Arena.for_current_domain () in
  Array.iteri
    (fun i ((spec : Experiment.policy_spec), dag) ->
      let logged =
        match replay with
        | Some _ when spec == Experiment.algorithm1 -> Some (Layers.probe ~log:true ())
        | _ -> None
      in
      let t0 = Mono.now () in
      let cell = Mono.Span.add (Lazy.force sp_cell) t0 t0 in
      let pol = spec.Experiment.make ~p in
      let pol = match probe with Some pr -> Layers.wrap ~parent:cell pr pol | None -> pol in
      let pol = match logged with Some pr -> Layers.wrap pr pol | None -> pol in
      let res = Engine.run ~arena ~lean:true ~p pol dag in
      let t1 = Mono.now () in
      Validate.check_exn ~dag res.Engine.schedule;
      let t2 = Mono.now () in
      ignore (Sys.opaque_identity (Bounds.compute ~p dag));
      let t3 = Mono.now () in
      ignore (Mono.Span.add ~parent:cell (Lazy.force sp_run) t0 t1);
      ignore (Mono.Span.add ~parent:cell (Lazy.force sp_validate) t1 t2);
      ignore (Mono.Span.add ~parent:cell (Lazy.force sp_bounds) t2 t3);
      parts.run_ns <- parts.run_ns + (t1 - t0);
      parts.validate_ns <- parts.validate_ns + (t2 - t1);
      parts.bounds_ns <- parts.bounds_ns + (t3 - t2);
      parts.tasks <- parts.tasks + Dag.n dag;
      parts.cell_ms.(i) <- float_of_int (t3 - t0) *. 1e-6;
      match (replay, logged) with
      | Some (pm, ev), Some pr ->
        Layers.replay_prefix_min pm ~p ~schedule:res.Engine.schedule
          (Option.get pr.Layers.log);
        Layers.replay_events ev ~p ~schedule:res.Engine.schedule
      | _ -> ())
    cells;
  parts

(* Per-cell wall time inside a pool fan-out of [Experiment.run_one]. *)
let cell_sum pool cells =
  let t0 = Mono.now () in
  let d =
    Pool.parallel_map ~chunk:1 pool
      (fun (spec, dag) ->
        let t0 = Mono.now () in
        ignore (Sys.opaque_identity (Experiment.run_one ~p spec dag));
        Mono.now () - t0)
      cells
  in
  (Array.fold_left ( + ) 0 d, Mono.now () - t0)

let traced r ~seed ~seconds =
  let pool, groups, _ = setup ~seed ~reps:1 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let cells = all_cells groups in
  let n_cells = Array.length cells in
  let seq = ref [] and par = ref [] and gcs = ref [] in
  let last = ref [] and reference = ref [] in
  let t_end = Mono.now () + int_of_float (seconds *. 0.5 *. 1e9) in
  while Mono.now () < t_end || List.length !par < 3 do
    let o, dt, _ = timed_campaign Pool.sequential groups in
    seq := dt :: !seq;
    reference := o;
    let o, dt, g = timed_campaign pool groups in
    par := dt :: !par;
    gcs := g :: !gcs;
    last := o
  done;
  let campaigns = List.length !par in
  Outcome.ops r ~attempted:(2 * campaigns * n_cells) ~failed:0;
  check_outcomes r groups !last !reference;
  let med l = Mono.median (Array.of_list l) in
  let t1 = med !seq and tn = med !par in
  let sum_par, wall_par = cell_sum pool cells in
  let sum_seq, _ = cell_sum Pool.sequential cells in
  (* Three rounds of a plain decomposed pass, a wrapped one and a jobs-1
     campaign: the ledger compares the first with the third, the tracing
     overhead the second with the first.  Medians over the rounds. *)
  let pr = Layers.probe () in
  let total q = q.run_ns + q.validate_ns + q.bounds_ns in
  let rounds =
    List.init 3 (fun _ ->
        let plain = decompose cells in
        let wrapped = decompose ~probe:pr cells in
        let _, dt, _ = timed_campaign Pool.sequential groups in
        (plain, wrapped, dt))
  in
  let by_total l =
    List.nth (List.sort (fun a b -> compare (total a) (total b)) l) 1
  in
  let plain = by_total (List.map (fun (a, _, _) -> a) rounds) in
  let wrapped = by_total (List.map (fun (_, b, _) -> b) rounds) in
  let t1_ledger = med (List.map (fun (_, _, c) -> c) rounds) in
  let pm = Layers.new_replay () and ev = Layers.new_event_replay () in
  ignore (decompose ~replay:(pm, ev) cells);
  Outcome.check r "sweep_mixed.replay_feasible" (ev.Layers.replay_errors = 0);
  let an = Layers.new_analysis () in
  List.iter
    (fun g -> List.iter (fun d -> Layers.measure_analysis an ~p (Dag.tasks d)) g.dags)
    groups;
  let tasks = float_of_int plain.tasks in
  let callbacks_ns = float_of_int (pr.Layers.ready_ns + pr.Layers.launch_ns) /. 3. in
  let plain_total = total plain and wrapped_total = total wrapped in
  let tasks3 = 3. *. tasks in
  let cell_sorted = Mono.sorted_copy plain.cell_ms in
  let g_sum f = List.fold_left (fun a g -> a +. f g) 0. !gcs in
  let per_cell = float_of_int (campaigns * n_cells) in
  let heap_ops = Layers.per ev.Layers.heap_ops 1 in
  Outcome.emit_layers r
    [
      ("core.on_ready.ns_per_call", (Layers.per pr.Layers.ready_ns pr.Layers.ready_calls, pr.Layers.ready_calls));
      ("core.next_launch.ns_per_call", (Layers.per pr.Layers.launch_ns pr.Layers.launch_calls, pr.Layers.launch_calls));
      ("core.next_launch.calls_per_task", (float_of_int pr.Layers.launch_calls /. tasks3, n_cells));
      ("core.next_launch.launch_ratio", (Layers.per pr.Layers.launches pr.Layers.launch_calls, pr.Layers.launch_calls));
      ("util.prefix_min.push_ns", (Layers.per pm.Layers.push_ns pm.Layers.pushes, pm.Layers.pushes));
      ("util.prefix_min.pop_ns", (Layers.per pm.Layers.pop_ns pm.Layers.pops, pm.Layers.pops));
      ("util.float_heap.ns_per_op", (Layers.per ev.Layers.heap_ns ev.Layers.heap_ops, ev.Layers.heap_ops));
      ("util.float_heap.ops_per_task", (heap_ops /. float_of_int (max 1 ev.Layers.platform_pairs), ev.Layers.platform_pairs));
      ("sim.platform.acquire_release_ns", (Layers.per ev.Layers.platform_ns ev.Layers.platform_pairs, ev.Layers.platform_pairs));
      ("sim.loop.self_ns_per_task", ((float_of_int wrapped.run_ns -. callbacks_ns) /. tasks, n_cells));
      ("model.analyze.ns_per_op", (Layers.per an.Layers.analyze_ns an.Layers.analyzed, an.Layers.analyzed));
      ("core.step1.ns_per_op", (Layers.per an.Layers.step1_ns an.Layers.step1_calls, an.Layers.step1_calls));
      ("core.step1.probes_per_op", (Layers.per an.Layers.probes an.Layers.step1_calls, an.Layers.step1_calls));
      ("sim.validate.ns_per_task", (float_of_int plain.validate_ns /. tasks, n_cells));
      ("graph.bounds.us_per_cell", (float_of_int plain.bounds_ns /. 1e3 /. float_of_int n_cells, n_cells));
      ("analysis.cell.ms_p50", (Mono.percentile_sorted cell_sorted 50., n_cells));
      ("analysis.cell.ms_p99", (Mono.percentile_sorted cell_sorted 99., n_cells));
      ("util.pool.speedup_vs_1", (t1 /. tn, campaigns));
      ("util.pool.idle_pct", (100. *. (1. -. (float_of_int sum_par /. (float_of_int jobs *. float_of_int wall_par))), n_cells));
      ("gc.minor_words_per_op", (g_sum (fun g -> g.Mono.minor) /. per_cell, campaigns));
      ("gc.major_words_per_op", (g_sum (fun g -> g.Mono.major) /. per_cell, campaigns));
      ("gc.minor_collections", (g_sum (fun g -> float_of_int g.Mono.minor_gcs) /. float_of_int campaigns, campaigns));
      ("gc.major_collections", (g_sum (fun g -> float_of_int g.Mono.major_gcs) /. float_of_int campaigns, campaigns));
      ("ledger.unattributed_pct", (100. *. ((t1_ledger *. 1e9) -. float_of_int plain_total) /. (t1_ledger *. 1e9), 3));
      ("trace.overhead_pct", (100. *. float_of_int (wrapped_total - plain_total) /. float_of_int plain_total, n_cells));
    ];
  Outcome.extra r ~n:campaigns "campaign_jobs_1_s" "s" t1;
  Outcome.extra r ~n:campaigns "campaign_jobs_n_s" "s" tn;
  Outcome.extra r ~n:n_cells "cell_slowdown_in_pool" "ratio"
    (float_of_int sum_par /. float_of_int sum_seq);
  Outcome.note r "%d cells, pool of %d jobs; gc.*_per_op are per cell, gc.*_collections per campaign" n_cells jobs;
  Outcome.note r "ledger: run %.0f + validate %.0f + bounds %.0f ms of a %.0f ms jobs-1 campaign"
    (float_of_int plain.run_ns *. 1e-6) (float_of_int plain.validate_ns *. 1e-6)
    (float_of_int plain.bounds_ns *. 1e-6) (t1_ledger *. 1e3)
