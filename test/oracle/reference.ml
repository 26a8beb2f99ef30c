(* Differential oracles for the production scheduler, linked only by the
   tests and the bench: the pre-arena event loop ([run]), which records
   every view of a run as eager lists and takes its processors from the
   old processor-per-flag [Platform_reference], and the seed's sorted-list
   Algorithm 1 policy ([policy]).  Both are kept verbatim so the qcheck
   properties and the [alloc_lean] / [scalability_hot_path] bench gates
   pin [Sim_core.run] and [Online_scheduler.policy] against them.  The
   clairvoyant and rigid list schedulers' old sorted-list queues close the
   file. *)

open Moldable_util
open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_core
open Sim_core
open Metrics

(* [Sim_core.run]'s argument checks, with its messages. *)
let validate_inputs ?release_times ~max_attempts ~n () =
  (match release_times with
  | None -> ()
  | Some r ->
    if Array.length r <> n then
      invalid_arg "Sim_core.run: release_times length must equal task count";
    Array.iter
      (fun t ->
        if not (Float.is_finite t) || t < 0. then
          invalid_arg "Sim_core.run: release times must be finite and >= 0")
      r);
  if max_attempts < 1 then
    invalid_arg "Sim_core.run: max_attempts must be >= 1"

(* The pre-arena event loop: boxed event records on a closure-compared
   [Pqueue], cons-list trace/attempts/depth-sample recording, a fresh
   platform and fresh arrays per run.  The qcheck properties in
   test_sim_core.ml pin [Sim_core.run] to it across priority rules,
   allocators, failure models and release times, and bench section
   [alloc_lean] measures the allocation delta between the two. *)

module Ref_queue = struct
  type 'a item = { time : float; seq : int; payload : 'a }
  type 'a t = { heap : 'a item Pqueue.t; mutable next_seq : int }

  let cmp a b =
    match Float.compare a.time b.time with
    | 0 -> Int.compare a.seq b.seq
    | c -> c

  let create () = { heap = Pqueue.create ~cmp; next_seq = 0 }

  let add t ~time payload =
    if not (Float.is_finite time) then
      invalid_arg "Event_queue.add: time must be finite";
    Pqueue.push t.heap { time; seq = t.next_seq; payload };
    t.next_seq <- t.next_seq + 1

  let pop t =
    Option.map (fun i -> (i.time, i.payload)) (Pqueue.pop t.heap)

  let pop_simultaneous t =
    match pop t with
    | None -> None
    | Some (time, first) ->
      let rec gather latest acc =
        match Pqueue.peek t.heap with
        | Some i when Fcmp.approx ~eps:Event_queue.batch_eps i.time time ->
          let i = Pqueue.pop_exn t.heap in
          gather i.time (i.payload :: acc)
        | Some _ | None -> (latest, List.rev acc)
      in
      let latest, batch = gather time [ first ] in
      Some (latest, batch)
end

type ref_state = Unrevealed | Available | Running | Done

(* Every view of a run, forced into the list and record shapes the
   pre-arena loop built eagerly.  [run] returns one; [of_sim] forces a
   [Sim_core.result]'s views into one, so the differential compares the
   two element for element. *)
type result = {
  schedule : Schedule.t;
  trace : (float * event) list;
  attempts : attempt list;
  makespan : float;
  n_attempts : int;
  n_failures : int;
  p : int;
  counters : Metrics.counters;
  utilization : Metrics.segment list;
  queue_depth : (float * int) list;
  tasks : Metrics.task_stat array;
}

let of_sim (r : Sim_core.result) =
  let m = r.Sim_core.metrics in
  {
    schedule = r.Sim_core.schedule;
    trace = Metrics.events_from m 0;
    attempts = Metrics.attempts m;
    makespan = Schedule.makespan r.Sim_core.schedule;
    n_attempts = m.Metrics.counters.Metrics.launches;
    n_failures = m.Metrics.counters.Metrics.retries;
    p = Schedule.p m.Metrics.schedule;
    counters = m.Metrics.counters;
    utilization = Metrics.utilization m;
    queue_depth = Metrics.queue_depth m;
    tasks = Metrics.tasks m;
  }

(* The pre-arena busy timeline: sort every attempt endpoint by time, then
   sweep; simultaneous endpoints collapse into one breakpoint. *)
let timeline_of_spans spans =
  let deltas =
    List.concat_map
      (fun (start, finish, nprocs) -> [ (start, nprocs); (finish, -nprocs) ])
      spans
    |> List.sort (fun (ta, _) (tb, _) -> Float.compare ta tb)
  in
  let rec sweep acc busy cursor = function
    | [] -> List.rev acc
    | (time, delta) :: rest ->
      let acc =
        if time > cursor then { Metrics.t0 = cursor; t1 = time; busy } :: acc
        else acc
      in
      sweep acc (busy + delta) time rest
  in
  match deltas with [] -> [] | (t0, _) :: _ -> sweep [] 0 t0 deltas

type ref_event =
  | RComplete of { tid : int; attempt : int; start : float; finish : float;
                   procs : int array }
  | RReveal of int

let run ?release_times ?(seed = 0) ?(max_attempts = max_int)
    ?(failures = never) ?(tracer = Tracer.null)
    ?(registry = Moldable_obs.Registry.null) ~p policy dag =
  let n = Dag.n dag in
  let traced = Tracer.enabled tracer in
  validate_inputs ?release_times ~max_attempts ~n ();
  let release i =
    match release_times with None -> 0. | Some r -> r.(i)
  in
  let rng = Rng.create seed in
  let platform = Platform_reference.create p in
  let builder = Schedule.builder ~p ~n in
  let events = Ref_queue.create () in
  let state = Array.make n Unrevealed in
  let indeg = Array.init n (Dag.in_degree dag) in
  let attempt_no = Array.make n 0 in
  let completed = ref 0 in
  let trace = ref [] in
  let attempts = ref [] in
  let n_failures = ref 0 in
  let counters = Metrics.make_counters () in
  let ready_count = ref 0 in
  let depth_samples = ref [] in
  let first_ready = Array.make n nan in
  let first_start = Array.make n nan in
  let service = Array.make n 0. in
  let record now ev = trace := (now, ev) :: !trace in
  let fail fmt =
    Printf.ksprintf
      (fun s -> raise (Policy_error (policy.name ^ ": " ^ s)))
      fmt
  in
  let reveal now i =
    state.(i) <- Available;
    incr ready_count;
    if Float.is_nan first_ready.(i) then first_ready.(i) <- now;
    record now (Ready i);
    if traced then
      Tracer.record_instant tracer ~time:now ~kind:Tracer.Ready ~subject:i;
    policy.on_ready ~now (Dag.task dag i)
  in
  let reveal_or_defer now i =
    if release i <= now then reveal now i
    else begin
      if traced then
        Tracer.record_instant tracer ~time:now ~kind:Tracer.Deferred
          ~subject:i;
      Ref_queue.add events ~time:(release i) (RReveal i)
    end
  in
  let launch_round_untimed now =
    let rec loop () =
      let free = Platform_reference.free_count platform in
      if free > 0 then
        match policy.next_launch ~now ~free with
        | None ->
          counters.Metrics.stall_checks <- counters.Metrics.stall_checks + 1;
          if traced && !ready_count > 0 then
            Tracer.record_instant tracer ~time:now ~kind:Tracer.Stall
              ~subject:(-1)
        | Some (tid, nprocs) ->
          if tid < 0 || tid >= n then fail "launched unknown task %d" tid;
          (match state.(tid) with
          | Available -> ()
          | Unrevealed -> fail "launched unrevealed task %d" tid
          | Running -> fail "launched running task %d" tid
          | Done -> fail "launched completed task %d" tid);
          if nprocs < 1 then fail "task %d launched on %d procs" tid nprocs;
          if nprocs > free then
            fail "task %d needs %d procs but only %d are free" tid nprocs free;
          if attempt_no.(tid) >= max_attempts then
            failwith
              (Printf.sprintf
                 "Sim_core.run: task %d reached the attempt limit (%d \
                  attempts, all failed) under failure model %s"
                 tid max_attempts failures.model_name);
          let procs = Platform_reference.acquire platform nprocs in
          let duration = Task.time (Dag.task dag tid) nprocs in
          state.(tid) <- Running;
          decr ready_count;
          attempt_no.(tid) <- attempt_no.(tid) + 1;
          if Float.is_nan first_start.(tid) then first_start.(tid) <- now;
          counters.Metrics.launches <- counters.Metrics.launches + 1;
          record now (Start (tid, nprocs));
          Ref_queue.add events
            ~time:(now +. duration)
            (RComplete
               { tid; attempt = attempt_no.(tid); start = now;
                 finish = now +. duration; procs });
          loop ()
    in
    loop ()
  in
  let launch_round now =
    if traced then
      Tracer.timed tracer Launch_round (fun () -> launch_round_untimed now)
    else launch_round_untimed now
  in
  let sample_depth now =
    depth_samples := (now, !ready_count) :: !depth_samples
  in
  List.iter (reveal_or_defer 0.) (Dag.sources dag);
  launch_round 0.;
  sample_depth 0.;
  let event_loop () =
    while !completed < n do
      match Ref_queue.pop_simultaneous events with
      | None ->
        fail "stalled: %d of %d tasks completed but nothing is running"
          !completed n
      | Some (now, batch) ->
        counters.Metrics.batches <- counters.Metrics.batches + 1;
        counters.Metrics.events <- counters.Metrics.events + List.length batch;
        let outcomes =
          List.map
            (function
              | RComplete { tid; attempt; start; finish; procs } ->
                Platform_reference.release platform procs;
                let failed = failures.fails rng ~task_id:tid ~attempt in
                attempts :=
                  { task_id = tid; attempt; start; finish = now;
                    nprocs = Array.length procs; procs; failed }
                  :: !attempts;
                service.(tid) <- service.(tid) +. (now -. start);
                if failed then begin
                  incr n_failures;
                  counters.Metrics.retries <- counters.Metrics.retries + 1;
                  record now (Failed (tid, attempt));
                  `Failed tid
                end
                else begin
                  state.(tid) <- Done;
                  incr completed;
                  record now (Finish tid);
                  Schedule.add builder
                    { Schedule.task_id = tid; start; finish;
                      nprocs = Array.length procs; procs };
                  `Succeeded tid
                end
              | RReveal i -> `Revealed i)
            batch
        in
        List.iter
          (function
            | `Failed tid -> reveal now tid
            | `Revealed i -> reveal now i
            | `Succeeded _ -> ())
          outcomes;
        List.iter
          (function
            | `Succeeded tid ->
              List.iter
                (fun j ->
                  indeg.(j) <- indeg.(j) - 1;
                  if indeg.(j) = 0 then reveal_or_defer now j)
                (Dag.successors dag tid)
            | `Failed _ | `Revealed _ -> ())
          outcomes;
        launch_round now;
        sample_depth now
    done
  in
  if traced then Tracer.timed tracer Event_loop event_loop
  else event_loop ();
  let attempts =
    List.sort
      (fun (x : attempt) (y : attempt) ->
        match Float.compare x.start y.start with
        | 0 -> (
          match Int.compare x.task_id y.task_id with
          | 0 -> Int.compare x.attempt y.attempt
          | c -> c)
        | c -> c)
      !attempts
  in
  let schedule = Schedule.finalize builder in
  let makespan =
    List.fold_left (fun acc (at : attempt) -> Float.max acc at.finish) 0.
      attempts
  in
  let tasks =
    Array.init n (fun i ->
        {
          Metrics.task_id = i;
          ready = first_ready.(i);
          start = first_start.(i);
          finish = (Schedule.placement schedule i).Schedule.finish;
          wait = first_start.(i) -. first_ready.(i);
          service = service.(i);
          attempts = attempt_no.(i);
        })
  in
  let spans =
    List.map
      (fun (at : attempt) -> (at.start, at.finish, at.nprocs))
      attempts
  in
  (let module R = Moldable_obs.Registry in
   if R.enabled registry then begin
     let c name help v =
       R.incr_by (R.counter registry ~name ~help) (float_of_int v)
     in
     c "moldable_sim_events" "Simulation events processed"
       counters.Metrics.events;
     c "moldable_sim_batches" "Simultaneous-completion batches processed"
       counters.Metrics.batches;
     c "moldable_sim_launches" "Task attempts launched"
       counters.Metrics.launches;
     c "moldable_sim_retries" "Failed attempts re-queued for retry"
       counters.Metrics.retries;
     c "moldable_sim_stall_checks"
       "Launch rounds the policy ended by declining to launch"
       counters.Metrics.stall_checks;
     c "moldable_sim_runs" "Completed simulation runs" 1
   end);
  {
    schedule;
    trace = List.rev !trace;
    attempts;
    makespan;
    n_attempts = List.length attempts;
    n_failures = !n_failures;
    p;
    counters;
    utilization = timeline_of_spans spans;
    queue_depth = List.rev !depth_samples;
    tasks;
  }

(* The seed's sorted-list Algorithm 1 policy: O(n) insert, O(n) scan, and
   a fresh Task.analyze both in on_ready and inside the allocator.  The
   trace-equivalence property test and the scalability benchmark run it
   against [Online_scheduler.policy]. *)
let policy ?(priority = Priority.fifo) ~allocator ~p () =
  let queue : Priority.item list ref = ref [] in
  let next_seq = ref 0 in
  let insert item =
    let rec go = function
      | [] -> [ item ]
      | x :: rest ->
        if priority.Priority.compare item x < 0 then item :: x :: rest
        else x :: go rest
    in
    queue := go !queue
  in
  let on_ready ~now:_ task =
    let a = Task.analyze ~p task in
    let alloc = Allocator.allocate allocator ~p task in
    insert
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
  let next_launch ~now:_ ~free =
    (* List scheduling: first task in priority order that fits. *)
    let rec extract acc = function
      | [] -> None
      | (x : Priority.item) :: rest ->
        if x.Priority.alloc <= free then begin
          queue := List.rev_append acc rest;
          Some (x.Priority.task.Task.id, x.Priority.alloc)
        end
        else extract (x :: acc) rest
    in
    extract [] !queue
  in
  {
    Sim_core.name =
      Printf.sprintf "online-ref[%s, %s]" allocator.Allocator.name
        priority.Priority.name;
    on_ready;
    next_launch;
  }

(* The sorted-list ready queues that [Offline.critical_path_list],
   [Offline.list_with] and [Rigid.list_schedule] kept before they moved
   onto [Online_scheduler.policy]'s queue, verbatim and over the
   production engine.  The list-scheduler differential in
   test_scheduler_equiv.ml pins the production versions to them. *)

let critical_path_policy ~allocator ~p dag =
  let bounds = Bounds.compute ~p dag in
  let weight i = bounds.Bounds.analyzed.(i).Task.t_min in
  let bl = Paths.bottom_level ~weight dag in
  let queue : (int * int) list ref = ref [] in
  (* (task id, alloc), sorted by decreasing bottom level, ties by id. *)
  let insert (id, alloc) =
    let higher (a, _) (b, _) =
      match Float.compare bl.(b) bl.(a) with 0 -> Int.compare a b | c -> c
    in
    let rec go = function
      | [] -> [ (id, alloc) ]
      | x :: rest ->
        if higher (id, alloc) x < 0 then (id, alloc) :: x :: rest
        else x :: go rest
    in
    queue := go !queue
  in
  let on_ready ~now:_ (task : Task.t) =
    insert (task.Task.id, Allocator.allocate allocator ~p task)
  in
  let next_launch ~now:_ ~free =
    let rec extract acc = function
      | [] -> None
      | ((_, alloc) as x) :: rest when alloc <= free ->
        queue := List.rev_append acc rest;
        Some x
      | x :: rest -> extract (x :: acc) rest
    in
    extract [] !queue
  in
  {
    Sim_core.name = "offline-critical-path[" ^ allocator.Allocator.name ^ "]";
    on_ready;
    next_launch;
  }

let critical_path_list ?(allocator = Allocator.algorithm2_per_model) ~p dag =
  Sim_core.run ~p (critical_path_policy ~allocator ~p dag) dag

let list_with ~allocations ~priority ~p dag =
  let n = Dag.n dag in
  if Array.length allocations <> n || Array.length priority <> n then
    invalid_arg "Offline.list_with: array lengths must match the task count";
  Array.iter
    (fun q ->
      if q < 1 || q > p then
        invalid_arg "Offline.list_with: allocation out of [1, P]")
    allocations;
  let queue : int list ref = ref [] in
  let before a b =
    match Float.compare priority.(b) priority.(a) with
    | 0 -> Int.compare a b
    | c -> c
  in
  let insert id =
    let rec go = function
      | [] -> [ id ]
      | x :: rest -> if before id x < 0 then id :: x :: rest else x :: go rest
    in
    queue := go !queue
  in
  let on_ready ~now:_ (task : Task.t) = insert task.Task.id in
  let next_launch ~now:_ ~free =
    let rec extract acc = function
      | [] -> None
      | id :: rest when allocations.(id) <= free ->
        queue := List.rev_append acc rest;
        Some (id, allocations.(id))
      | id :: rest -> extract (id :: acc) rest
    in
    extract [] !queue
  in
  Sim_core.run ~p { Sim_core.name = "offline-list-with"; on_ready; next_launch }
    dag

let rigid_list_schedule ~p ~jobs dag =
  let queue = ref [] in
  let alloc = Hashtbl.create (List.length jobs) in
  List.iter
    (fun (j : Moldable_indep.Rigid.job) ->
      Hashtbl.replace alloc j.id j.procs)
    jobs;
  let on_ready ~now:_ (task : Task.t) =
    match Hashtbl.find_opt alloc task.Task.id with
    | Some procs -> queue := !queue @ [ (task.Task.id, procs) ]
    | None ->
      invalid_arg
        (Printf.sprintf "Rigid.list_schedule: no job for task %d" task.Task.id)
  in
  (* FIFO list scheduling with skipping, like Algorithm 1's queue scan. *)
  let next_launch ~now:_ ~free =
    let rec extract acc = function
      | [] -> None
      | ((_, procs) as x) :: rest when procs <= free ->
        queue := List.rev_append acc rest;
        Some x
      | x :: rest -> extract (x :: acc) rest
    in
    extract [] !queue
  in
  Sim_core.run ~p { Sim_core.name = "rigid-list"; on_ready; next_launch } dag
