open Moldable_model
open Moldable_sim
module Ranked_queue = Moldable_util.Ranked_queue

(* The ready queue is a {!Moldable_util.Ranked_queue}: per-allocation heaps
   of flat (key, tie, id) arrays under a segment tree caching, per node, the
   allocation whose bucket holds the subtree's first entry.  "First task in
   priority order that fits in [free]" is a prefix query over allocations
   [1, free] — O(log P + log n) per insert and per launch, O(1) when the
   queue's first task fits, and O(log P) for the "nothing fits" answer
   that ends every scheduling instant.  Every rule ends in a distinct tie,
   so the order is total and the extraction order matches the sorted-list
   scan exactly. *)
let launcher ~tracer ready =
  let launch ~free =
    match Ranked_queue.fit ready ~free with
    | 0 -> None
    | alloc -> Some (Ranked_queue.pop ready ~alloc, alloc)
  in
  if Tracer.enabled tracer then fun ~now:_ ~free ->
    Tracer.timed tracer Ready_queue (fun () -> launch ~free)
  else fun ~now:_ ~free -> launch ~free

let policy ?(priority = Priority.fifo) ?(tracer = Tracer.null)
    ?(registry = Moldable_obs.Registry.null) ~allocator ~p () =
  let ready = Ranked_queue.create ~k:p in
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
  (* One allocator decision per reveal feeds the allocation, the tracer's
     provenance record and the probe histogram alike. *)
  let on_ready ~now:_ task =
    let a =
      if traced then
        Tracer.timed tracer Analyze (fun () -> Task.analyze ~p task)
      else Task.analyze ~p task
    in
    let d =
      if traced then
        Tracer.timed tracer Allocator (fun () -> allocator.Allocator.explain a)
      else allocator.Allocator.explain a
    in
    if traced then record_decision task a d;
    (match probes with
    | Some h ->
      Moldable_obs.Registry.observe h
        (float_of_int d.Allocator.candidates_scanned)
    | None -> ());
    let alloc = d.Allocator.final_alloc in
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
    let key = priority.Priority.key item and tie = priority.Priority.tie item in
    if traced then
      Tracer.timed tracer Ready_queue (fun () ->
          Ranked_queue.push ready ~alloc ~key ~tie ~id:task.Task.id)
    else Ranked_queue.push ready ~alloc ~key ~tie ~id:task.Task.id
  in
  {
    Sim_core.name =
      Printf.sprintf "online[%s, %s]" allocator.Allocator.name
        priority.Priority.name;
    on_ready;
    next_launch = launcher ~tracer ready;
  }

let ranked ~name ~allocations ~rank ~p =
  let ready = Ranked_queue.create ~k:p in
  {
    Sim_core.name;
    on_ready =
      (fun ~now:_ task ->
        let id = task.Task.id in
        Ranked_queue.push ready ~alloc:allocations.(id) ~key:rank.(id) ~tie:id
          ~id);
    next_launch = launcher ~tracer:Tracer.null ready;
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
