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
  (* A waiting task's key, from its allocation and the t_min in
     [t_min.(0)] (a one-cell array, so that the decision hands it over
     with no pair and no box). *)
  let t_min = Array.make 1 0. in
  let rank = priority.Priority.rank in
  let enqueue task alloc =
    let seq = !next_seq in
    incr next_seq;
    Ranked_queue.push ready ~alloc
      ~key:(Priority.rank_key rank task ~alloc ~t_min:t_min.(0))
      ~tie:seq ~id:task.Task.id
  in
  (* One allocator decision per reveal.  When something records its
     provenance, the decision is [explain]'s record, which also feeds the
     tracer and the probe histogram; otherwise [Allocator.decide] runs the
     same Step 1 and Step 2 without building the analysis or the record. *)
  let kernel = Allocator.kernel allocator ~p in
  let on_ready =
    if traced || Option.is_some probes then fun ~now:_ task ->
      let a =
        if traced then
          Tracer.timed tracer Analyze (fun () -> Task.analyze ~p task)
        else Task.analyze ~p task
      in
      let d =
        if traced then
          Tracer.timed tracer Allocator (fun () ->
              Allocator.explain allocator a)
        else Allocator.explain allocator a
      in
      if traced then Tracer.record_decision tracer d;
      (match probes with
      | Some h ->
        Moldable_obs.Registry.observe h (float_of_int d.candidates_scanned)
      | None -> ());
      let alloc = d.final_alloc in
      t_min.(0) <- a.Task.t_min;
      if traced then
        Tracer.timed tracer Ready_queue (fun () -> enqueue task alloc)
      else enqueue task alloc
    else fun ~now:_ task -> enqueue task (Allocator.decide kernel task t_min)
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
