(* Outside-in measurements of the simulator's layers, shared by the
   workloads: a wrapper around the public [Sim_core.policy] closures, and
   replays of a finished run's operation sequence into the public APIs of
   [Prefix_min], [Float_heap] and [Platform]. *)

open Moldable_util
open Moldable_model
open Moldable_sim
open Moldable_core

(* --------------------------------------------------------- policy probe *)

type probe = {
  mutable ready_calls : int;
  mutable ready_ns : int;
  mutable launch_calls : int;
  mutable launch_ns : int;
  mutable launches : int;
  log : Growbuf.I.t option;
      (* Ready-queue operation log: [id lsl 1] for a push of task [id],
         [(free lsl 1) lor 1] for a launch probe with [free] processors. *)
}

let probe ?(log = false) () =
  {
    ready_calls = 0;
    ready_ns = 0;
    launch_calls = 0;
    launch_ns = 0;
    launches = 0;
    log = (if log then Some (Growbuf.I.create ~capacity:1024 ()) else None);
  }

let sp_on_ready = lazy (Mono.Span.intern "core.on_ready")
let sp_next_launch = lazy (Mono.Span.intern "core.next_launch")

(* The same policy with every callback timed; [parent] is the span of the
   enclosing run. *)
let wrap ?(parent = -1) pr (pol : Sim_core.policy) =
  let ovh = Lazy.force Mono.clock_overhead_ns in
  let sr = Lazy.force sp_on_ready and sl = Lazy.force sp_next_launch in
  {
    pol with
    Sim_core.on_ready =
      (fun ~now task ->
        let t0 = Mono.now () in
        pol.Sim_core.on_ready ~now task;
        let t1 = Mono.now () in
        pr.ready_calls <- pr.ready_calls + 1;
        pr.ready_ns <- pr.ready_ns + max 0 (t1 - t0 - ovh);
        ignore (Mono.Span.add ~parent sr t0 t1);
        match pr.log with
        | Some g -> Growbuf.I.push g (task.Task.id lsl 1)
        | None -> ());
    next_launch =
      (fun ~now ~free ->
        let t0 = Mono.now () in
        let r = pol.Sim_core.next_launch ~now ~free in
        let t1 = Mono.now () in
        pr.launch_calls <- pr.launch_calls + 1;
        pr.launch_ns <- pr.launch_ns + max 0 (t1 - t0 - ovh);
        (match r with Some _ -> pr.launches <- pr.launches + 1 | None -> ());
        ignore (Mono.Span.add ~parent sl t0 t1);
        (match pr.log with
        | Some g -> Growbuf.I.push g ((free lsl 1) lor 1)
        | None -> ());
        r);
  }

let algorithm1 ~p () =
  Online_scheduler.policy ~allocator:Allocator.algorithm2_per_model ~p ()

(* --------------------------------------------------------------- replays *)

type replay = {
  mutable pushes : int;
  mutable push_ns : int;
  mutable pops : int;
  mutable pop_ns : int;
}

let new_replay () = { pushes = 0; push_ns = 0; pops = 0; pop_ns = 0 }

(* Replays a logged ready-queue sequence into a fresh [Prefix_min] keyed by
   each task's allocation (read back from the schedule), ordered FIFO as
   Algorithm 1's queue is. *)
let replay_prefix_min acc ~p ~schedule log =
  let ovh = Lazy.force Mono.clock_overhead_ns in
  let q = Prefix_min.create ~k:p ~cmp:Priority.fifo.Priority.compare in
  let m = Growbuf.I.length log in
  let items =
    Array.init m (fun k ->
        let op = Growbuf.I.get log k in
        if op land 1 = 1 then None
        else
          let pl = Schedule.placement schedule (op lsr 1) in
          Some
            {
              Priority.task = Task.make ~id:pl.Schedule.task_id (Speedup.Roofline { w = 1.; ptilde = 1 });
              alloc = pl.Schedule.nprocs;
              t_min = 0.;
              seq = k;
            })
  in
  for k = 0 to m - 1 do
    let op = Growbuf.I.get log k in
    match items.(k) with
    | Some item ->
      let t0 = Mono.now () in
      Prefix_min.push q ~key:item.Priority.alloc item;
      let t1 = Mono.now () in
      acc.pushes <- acc.pushes + 1;
      acc.push_ns <- acc.push_ns + max 0 (t1 - t0 - ovh)
    | None ->
      let t0 = Mono.now () in
      ignore (Sys.opaque_identity (Prefix_min.pop_prefix q ~key:(op lsr 1)));
      let t1 = Mono.now () in
      acc.pops <- acc.pops + 1;
      acc.pop_ns <- acc.pop_ns + max 0 (t1 - t0 - ovh)
  done

type event_replay = {
  mutable heap_ops : int;
  mutable heap_ns : int;
  mutable platform_pairs : int;
  mutable platform_ns : int;
  mutable replay_errors : int;
}

let new_event_replay () =
  { heap_ops = 0; heap_ns = 0; platform_pairs = 0; platform_ns = 0; replay_errors = 0 }

(* Replays a schedule in launch order: before each start, every completion
   due by then is popped from a [Float_heap] and its processors are given
   back to a [Platform]; then the start acquires its allocation and pushes
   its completion.  This is the heap and platform traffic of the run. *)
let replay_events acc ~p ~schedule =
  let ovh = Lazy.force Mono.clock_overhead_ns in
  let n = Schedule.n schedule in
  let pls = Array.init n (Schedule.placement schedule) in
  Array.stable_sort
    (fun a b -> Float.compare a.Schedule.start b.Schedule.start)
    pls;
  let heap = Float_heap.create ~capacity:(max 64 n) () in
  let plat = Platform.create p in
  let blocks = Array.make n [||] in
  let pop_one () =
    let t0 = Mono.now () in
    let id = Float_heap.min_payload heap in
    Float_heap.drop_min heap;
    let t1 = Mono.now () in
    Platform.release plat blocks.(id);
    let t2 = Mono.now () in
    acc.heap_ops <- acc.heap_ops + 1;
    acc.heap_ns <- acc.heap_ns + max 0 (t1 - t0 - ovh);
    acc.platform_ns <- acc.platform_ns + max 0 (t2 - t1 - ovh)
  in
  Array.iter
    (fun pl ->
      let s = pl.Schedule.start in
      let horizon = s +. (1e-9 *. Float.max 1. (Float.abs s)) in
      while (not (Float_heap.is_empty heap)) && Float_heap.min_key heap <= horizon do
        pop_one ()
      done;
      if Platform.free_count plat < pl.Schedule.nprocs then
        acc.replay_errors <- acc.replay_errors + 1
      else begin
        let t0 = Mono.now () in
        let blk = Platform.acquire plat pl.Schedule.nprocs in
        let t1 = Mono.now () in
        Float_heap.push heap ~key:pl.Schedule.finish pl.Schedule.task_id;
        let t2 = Mono.now () in
        blocks.(pl.Schedule.task_id) <- blk;
        acc.platform_pairs <- acc.platform_pairs + 1;
        acc.platform_ns <- acc.platform_ns + max 0 (t1 - t0 - ovh);
        acc.heap_ops <- acc.heap_ops + 1;
        acc.heap_ns <- acc.heap_ns + max 0 (t2 - t1 - ovh)
      end)
    pls;
  while not (Float_heap.is_empty heap) do
    pop_one ()
  done

(* ------------------------------------------------- analysis and Step 1 *)

type analysis = {
  mutable analyzed : int;
  mutable analyze_ns : int;
  mutable step1_calls : int;
  mutable step1_ns : int;
  mutable probes : int;
}

let new_analysis () =
  { analyzed = 0; analyze_ns = 0; step1_calls = 0; step1_ns = 0; probes = 0 }

(* [Task.analyze] over the tasks, then the Step-1 search of Algorithm 2
   (budget [delta(mu)]) and of the improved allocator (budget [rho]) on
   each analysis — each phase timed as one block. *)
let measure_analysis acc ~p (tasks : Task.t array) =
  let n = Array.length tasks in
  let t0 = Mono.now () in
  let an = Array.map (fun t -> Task.analyze ~p t) tasks in
  let t1 = Mono.now () in
  acc.analyzed <- acc.analyzed + n;
  acc.analyze_ns <- acc.analyze_ns + (t1 - t0);
  let bounds =
    Array.map
      (fun (a : Task.analyzed) ->
        let kind = Speedup.kind a.Task.task.Task.speedup in
        ( Mu.default_delta kind *. a.Task.t_min,
          (Improved_alloc.params kind).Improved_alloc.rho *. a.Task.t_min ))
      an
  in
  let probes = ref 0 in
  let t2 = Mono.now () in
  Array.iteri
    (fun i a ->
      let b1, b2 = bounds.(i) in
      let _, k1 = Allocator.step1_counted a ~bound:b1 in
      let _, k2 = Allocator.step1_counted a ~bound:b2 in
      probes := !probes + k1 + k2)
    an;
  let t3 = Mono.now () in
  acc.step1_calls <- acc.step1_calls + (2 * n);
  acc.step1_ns <- acc.step1_ns + (t3 - t2);
  acc.probes <- acc.probes + !probes

let per a b = if b = 0 then 0. else float_of_int a /. float_of_int b
