open Moldable_model
open Moldable_graph
open Moldable_sim

type job = { id : int; procs : int; time : float }

let of_dag ~alloc ~p dag =
  if Dag.n_edges dag <> 0 then
    invalid_arg "Rigid.of_dag: the task set must be independent (no edges)";
  List.init (Dag.n dag) (fun id ->
      let procs = alloc id in
      if procs < 1 || procs > p then
        invalid_arg
          (Printf.sprintf "Rigid.of_dag: allocation %d out of [1, %d]" procs p);
      { id; procs; time = Task.time (Dag.task dag id) procs })

(* Equal ranks make the queue FIFO by task id, which is the reveal order:
   Sim_core reveals an edgeless, release-free task set at time 0 in id
   order.  Duplicate job ids: the last one wins. *)
let list_schedule ~p ~jobs dag =
  let n = Dag.n dag in
  let fail fmt =
    Printf.ksprintf (fun s -> invalid_arg ("Rigid.list_schedule: " ^ s)) fmt
  in
  if Dag.n_edges dag <> 0 then fail "the task set must be independent";
  let procs = Array.make n None in
  List.iter
    (fun j ->
      if j.id < 0 || j.id >= n then fail "job id %d out of [0, %d)" j.id n;
      if j.procs < 1 || j.procs > p then
        fail "job %d requirement %d out of [1, %d]" j.id j.procs p;
      procs.(j.id) <- Some j.procs)
    jobs;
  let allocations =
    Array.mapi
      (fun id q ->
        match q with Some q -> q | None -> fail "no job for task %d" id)
      procs
  in
  Moldable_core.Offline.list_with ~allocations ~priority:(Array.make n 0.) ~p
    dag

let shelf_pack ~p ~jobs =
  let sorted = List.sort (fun a b -> Float.compare b.time a.time) jobs in
  let builder = Schedule.builder ~p ~n:(List.length jobs) in
  let shelf_start = ref 0. in
  let shelf_height = ref 0. in
  let cursor = ref 0 in
  List.iter
    (fun j ->
      if j.procs > p then
        invalid_arg "Rigid.shelf_pack: job wider than the platform";
      if !cursor + j.procs > p || !shelf_height = 0. then begin
        (* Open a new shelf headed by this job (tallest remaining). *)
        shelf_start := !shelf_start +. !shelf_height;
        shelf_height := j.time;
        cursor := 0
      end;
      Schedule.add builder
        {
          Schedule.task_id = j.id;
          start = !shelf_start;
          finish = !shelf_start +. j.time;
          nprocs = j.procs;
          procs = Array.init j.procs (fun q -> !cursor + q);
        };
      cursor := !cursor + j.procs)
    sorted;
  Schedule.finalize builder
