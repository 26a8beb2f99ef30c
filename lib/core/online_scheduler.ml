open Moldable_model
open Moldable_sim
module Prefix_min = Moldable_util.Prefix_min

(* The ready queue is a {!Moldable_util.Prefix_min}: per-allocation Pqueue
   buckets under a segment tree whose nodes cache the priority-least item of
   their subtree.  "First task in priority order that fits in [free]" is a
   prefix-minimum query over allocations [1, free] — O(log P + log n) per
   insert and per launch, and O(log P) for the frequent "nothing fits"
   answer that ends every scheduling instant.  Every priority rule ends in
   a seq tie-break, so the order is total and the extraction order matches
   the seed's sorted-list scan exactly. *)
let policy ?(priority = Priority.fifo) ?(tracer = Tracer.null)
    ?(registry = Moldable_obs.Registry.null) ~allocator ~p () =
  let cache = Task.Cache.create ~p in
  let ready : Priority.item Prefix_min.t =
    Prefix_min.create ~k:p ~cmp:priority.Priority.compare
  in
  let next_seq = ref 0 in
  let traced = Tracer.enabled tracer in
  (* Step-1 probe counts (candidate allotments scanned per allocation
     decision, the same count the tracer's provenance carries) feed a
     registry histogram when a live registry is attached. *)
  let probes =
    let module R = Moldable_obs.Registry in
    if not (R.enabled registry) then None
    else
      Some
        (R.histogram registry ~name:"moldable_alloc_step1_probes"
           ~help:
             "Step-1 candidate allotments probed per allocation decision")
  in
  (* Decision provenance: one record per task (re-reveals after failed
     attempts are deduplicated by the tracer), carrying the Step-1/Step-2
     quantities of Algorithm 2 plus the alpha/beta ratios at p_star and at
     the final allocation. *)
  let record_decision task (a : Task.analyzed) (d : Allocator.decision) =
    Tracer.record_decision tracer
      {
        Tracer.task_id = task.Task.id;
        label = task.Task.label;
        model = Speedup.kind_name (Speedup.kind task.Task.speedup);
        p = a.Task.p;
        p_max = a.Task.p_max;
        t_min = a.Task.t_min;
        a_min = a.Task.a_min;
        p_star = d.Allocator.p_star;
        alpha = Task.alpha a d.Allocator.p_star;
        beta = Task.beta a d.Allocator.p_star;
        beta_budget = d.Allocator.beta_budget;
        cap = d.Allocator.cap;
        cap_applied = d.Allocator.cap_applied;
        final_alloc = d.Allocator.final_alloc;
        alpha_final = Task.alpha a d.Allocator.final_alloc;
        beta_final = Task.beta a d.Allocator.final_alloc;
        candidates_scanned = d.Allocator.candidates_scanned;
      }
  in
  let on_ready ~now:_ task =
    let a =
      if traced then
        Tracer.timed tracer "analyze" (fun () -> Task.Cache.analyze cache task)
      else Task.Cache.analyze cache task
    in
    let alloc =
      if traced then
        Tracer.timed tracer "allocator" (fun () ->
            allocator.Allocator.allocate_analyzed a)
      else allocator.Allocator.allocate_analyzed a
    in
    (if traced || Option.is_some probes then begin
       let d = allocator.Allocator.explain a in
       if traced then record_decision task a d;
       match probes with
       | Some h ->
         Moldable_obs.Registry.observe h
           (float_of_int d.Allocator.candidates_scanned)
       | None -> ()
     end);
    let item =
      {
        Priority.task;
        alloc;
        t_min = a.Task.t_min;
        seq =
          (let s = !next_seq in
           incr next_seq;
           s);
      }
    in
    if traced then
      Tracer.timed tracer "ready-queue" (fun () ->
          Prefix_min.push ready ~key:alloc item)
    else Prefix_min.push ready ~key:alloc item
  in
  let next_launch ~now:_ ~free =
    match
      if traced then
        Tracer.timed tracer "ready-queue" (fun () ->
            Prefix_min.pop_prefix ready ~key:free)
      else Prefix_min.pop_prefix ready ~key:free
    with
    | None -> None
    | Some x -> Some (x.Priority.task.Task.id, x.Priority.alloc)
  in
  {
    Sim_core.name =
      Printf.sprintf "online[%s, %s]" allocator.Allocator.name
        priority.Priority.name;
    on_ready;
    next_launch;
  }

(* Algorithm 1 in one call.  The improved algorithm (arXiv:2304.14127) is
   the same list scheduler over a different allocator
   ([~allocator:Improved_alloc.per_model]). *)
let run ?priority ?(allocator = Allocator.algorithm2_per_model) ?release_times
    ?seed ?max_attempts ?failures ?tracer ?registry ?arena ?lean ~p dag =
  Sim_core.run ?release_times ?seed ?max_attempts ?failures ?tracer ?registry
    ?arena ?lean ~p
    (policy ?priority ?tracer ?registry ~allocator ~p ())
    dag

let makespan ?priority ?allocator ~p dag =
  Schedule.makespan (run ?priority ?allocator ~p dag).Sim_core.schedule

let allocation_of ?(allocator = Allocator.algorithm2_per_model) ~p task =
  allocator.Allocator.allocate ~p task
