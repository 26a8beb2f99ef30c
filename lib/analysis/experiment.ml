open Moldable_graph
open Moldable_sim
open Moldable_util
open Moldable_core

type policy_spec = { label : string; make : p:int -> Sim_core.policy }

type outcome = {
  workload : string;
  policy : string;
  p : int;
  ratios : float list;
  makespans : float list;
  summary : Stats.summary;
}

let algorithm1 =
  {
    label = "Algorithm 1";
    make =
      (fun ~p ->
        Online_scheduler.policy ~allocator:Allocator.algorithm2_per_model ~p ());
  }

let improved =
  {
    label = "Improved (per-model)";
    make =
      (fun ~p ->
        Online_scheduler.policy ~allocator:Improved_alloc.per_model ~p ());
  }

let algorithm1_fixed_mu mu =
  {
    label = Printf.sprintf "Algorithm 1 (mu=%.3f)" mu;
    make =
      (fun ~p ->
        Online_scheduler.policy ~allocator:(Allocator.algorithm2 ~mu) ~p ());
  }

let default_policies =
  algorithm1
  :: List.map
       (fun (label, make) -> { label; make = (fun ~p -> make ~p) })
       Baselines.named

let run_one ?(validate = true) ~p spec dag =
  (* Sweep cells need only the makespan, so the simulation runs lean on the
     calling domain's arena: pool workers are long-lived, so a sweep's
     steady state allocates no per-run simulator storage.  The schedule —
     and hence every reported number — is identical to a full run. *)
  let result =
    Sim_core.run ~arena:(Sim_core.Arena.for_current_domain ()) ~lean:true ~p
      (spec.make ~p) dag
  in
  if validate then Validate.check_exn ~dag result.Sim_core.schedule;
  let lb = (Bounds.compute ~p dag).Bounds.lower_bound in
  let makespan = Schedule.makespan result.Sim_core.schedule in
  (makespan, makespan /. lb)

let evaluate ?(validate = true) ?(pool = Pool.sequential)
    ?(registry = Moldable_obs.Registry.null) ~p ~workload ~policies dags =
  (* Fan out one cell per (policy, instance) pair.  Each cell is a pure
     function of its (pre-built) DAG and policy spec — no shared mutable
     state, no RNG draw after dispatch — so the result array is identical
     at any job count; [Pool.parallel_map] puts cell [i]'s result at
     index [i].  Cells are heavyweight and heterogeneous, hence chunk 1. *)
  let dag_arr = Array.of_list dags in
  let n_dags = Array.length dag_arr in
  let spec_arr = Array.of_list policies in
  let cells =
    Array.init
      (Array.length spec_arr * n_dags)
      (fun c -> (spec_arr.(c / n_dags), dag_arr.(c mod n_dags)))
  in
  (* Telemetry wraps each cell from the outside (cell count + wall-clock
     latency histogram); the cell computation itself stays a pure function
     of its inputs, so outcomes remain identical with or without a
     registry and at any job count. *)
  let eval_cell =
    let module R = Moldable_obs.Registry in
    if not (R.enabled registry) then fun (spec, dag) ->
      run_one ~validate ~p spec dag
    else begin
      let n_cells =
        R.counter registry ~name:"moldable_sweep_cells"
          ~help:"Sweep cells (policy x instance pairs) evaluated"
      in
      let cell_h =
        R.histogram registry ~name:"moldable_sweep_cell_seconds"
          ~help:"Wall-clock seconds per sweep cell"
      in
      fun (spec, dag) ->
        let t0 = Clock.now () in
        let r = run_one ~validate ~p spec dag in
        R.incr n_cells;
        R.observe cell_h (Clock.now () -. t0);
        r
    end
  in
  let results = Pool.parallel_map ~chunk:1 pool eval_cell cells in
  List.mapi
    (fun i spec ->
      let pairs = List.init n_dags (fun j -> results.((i * n_dags) + j)) in
      let makespans = List.map fst pairs in
      let ratios = List.map snd pairs in
      {
        workload;
        policy = spec.label;
        p;
        ratios;
        makespans;
        summary = Stats.summarize ratios;
      })
    policies

let equal_summary (a : Stats.summary) (b : Stats.summary) =
  a.Stats.n = b.Stats.n
  && Float.equal a.Stats.mean b.Stats.mean
  && Float.equal a.Stats.stddev b.Stats.stddev
  && Float.equal a.Stats.min b.Stats.min
  && Float.equal a.Stats.max b.Stats.max
  && Float.equal a.Stats.median b.Stats.median
  && Float.equal a.Stats.p95 b.Stats.p95

let equal_outcome a b =
  String.equal a.workload b.workload
  && String.equal a.policy b.policy
  && a.p = b.p
  && List.compare_lengths a.ratios b.ratios = 0
  && List.for_all2 Float.equal a.ratios b.ratios
  && List.compare_lengths a.makespans b.makespans = 0
  && List.for_all2 Float.equal a.makespans b.makespans
  && equal_summary a.summary b.summary
