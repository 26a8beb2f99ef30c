(* The schedule checker as it stood before its checks were rewritten over
   flat arrays: precedence over the sorted [Dag.edges] list, the processor
   sweep over a stably sorted list of [(time, phase, k)] tuples, and the
   duration check fanned out over a pool.  Kept verbatim as the
   differential oracle for [Validate.check] and [Validate.check_attempts]:
   the same violations, in the same order, with the same messages. *)

open Moldable_model
open Moldable_graph
open Moldable_sim
module Fcmp = Moldable_util.Fcmp

let add errors fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt

(* The three feasibility checks run over executions: [execs.(k)] is one run
   of a task on its processors and [label k] names it in messages.  A
   placement is a single successful attempt, so [check] passes each
   placement and [check_attempts] every attempt, failed ones included. *)

(* Durations: independent per execution, so chunked over the pool; the
   option array keeps error messages in index order regardless of which
   domain produced them. *)
let check_durations errors ~pool ~dag ~label execs =
  Moldable_util.Pool.parallel_map pool
    (fun k ->
      let { Schedule.task_id; start; finish; nprocs; _ } = execs.(k) in
      let expected = Task.time (Dag.task dag task_id) nprocs in
      if Fcmp.approx ~eps:1e-6 expected (finish -. start) then None
      else
        Some
          (Printf.sprintf
             "%s on %d procs should run %.9g time units but runs %.9g"
             (label k) nprocs expected (finish -. start)))
    (Array.init (Array.length execs) Fun.id)
  |> Array.iter (Option.iter (fun e -> errors := e :: !errors))

(* Precedence against successful completions: [finish i] is NaN when task
   [i] never succeeded.  Every float comparison with NaN is false, so that
   case is flagged explicitly or the whole downstream subgraph would be
   silently accepted. *)
let check_precedence errors ~dag ~label ~finish ~iter_execs execs =
  List.iter
    (fun (i, j) ->
      let fi = finish i in
      iter_execs j (fun k ->
          let start = execs.(k).Schedule.start in
          if Float.is_nan fi then
            add errors
              "edge (%d,%d) violated: %s ran although predecessor %d never \
               succeeded"
              i j (label k) i
          else if Fcmp.lt ~eps:1e-6 start fi then
            add errors
              "edge (%d,%d) violated: %s starts at %.9g before %d finishes \
               at %.9g"
              i j (label k) start i fi))
    (Dag.edges dag)

(* Processor disjointness: sweep; at equal times releases come first so
   back-to-back reuse of a processor is legal. *)
let check_overlaps errors ~p ~label execs =
  let events = ref [] in
  Array.iteri
    (fun k (pl : Schedule.placement) ->
      events := (pl.start, 1, k) :: (pl.finish, 0, k) :: !events)
    execs;
  let occupied = Array.make p (-1) in
  List.sort
    (fun (ta, ka, _) (tb, kb, _) ->
      match Float.compare ta tb with 0 -> Int.compare ka kb | c -> c)
    !events
  |> List.iter (fun (_, phase, k) ->
         Array.iter
           (fun proc ->
             if phase = 0 then (
               if occupied.(proc) = k then occupied.(proc) <- -1)
             else if occupied.(proc) >= 0 then
               add errors "processor %d used by %s and %s simultaneously" proc
                 (label occupied.(proc)) (label k)
             else occupied.(proc) <- k)
           execs.(k).Schedule.procs)

let verdict errors = match !errors with [] -> Ok () | es -> Error (List.rev es)

let check ?(pool = Moldable_util.Pool.sequential) ~dag sched =
  let errors = ref [] in
  let n = Dag.n dag in
  if Schedule.n sched <> n then
    add errors "schedule has %d tasks but the graph has %d" (Schedule.n sched)
      n;
  let m = min n (Schedule.n sched) in
  let execs = Array.init m (Schedule.placement sched) in
  let label = Printf.sprintf "task %d" in
  check_durations errors ~pool ~dag ~label execs;
  check_precedence errors ~dag ~label execs
    ~finish:(fun i -> if i < m then execs.(i).finish else nan)
    ~iter_execs:(fun j f -> if j < m then f j);
  check_overlaps errors ~p:(Schedule.p sched) ~label execs;
  verdict errors

let check_attempts ~dag ~p attempts =
  let errors = ref [] in
  let n = Dag.n dag in
  let atts = Array.of_list attempts in
  let execs =
    Array.map
      (fun (a : Metrics.attempt) ->
        { Schedule.task_id = a.task_id; start = a.start; finish = a.finish;
          nprocs = a.nprocs; procs = a.procs })
      atts
  in
  let label k =
    Printf.sprintf "task %d attempt %d" atts.(k).task_id atts.(k).attempt
  in
  (* Per task, in attempt order: numbered 1, 2, ..., every attempt but the
     last failed and the last one succeeded. *)
  let per_task = Array.make n [] in
  Array.iteri
    (fun k (a : Metrics.attempt) ->
      per_task.(a.task_id) <- k :: per_task.(a.task_id))
    atts;
  let finish = Array.make n nan in
  for i = 0 to n - 1 do
    let ks =
      List.sort
        (fun x y -> Int.compare atts.(x).attempt atts.(y).attempt)
        per_task.(i)
    in
    per_task.(i) <- ks;
    if ks = [] then add errors "task %d never executed" i;
    let last = List.length ks - 1 in
    List.iteri
      (fun idx k ->
        let a = atts.(k) in
        if a.attempt <> idx + 1 then
          add errors "task %d attempt numbering broken at %d" i a.attempt;
        if a.nprocs < 1 || a.nprocs > p then
          add errors "%s has bad allocation %d" (label k) a.nprocs;
        if idx < last && not a.failed then
          add errors "%s succeeded but was re-executed" (label k)
        else if idx = last && a.failed then
          add errors "task %d's last attempt failed" i
        else if idx = last then finish.(i) <- a.finish)
      ks
  done;
  check_durations errors ~pool:Moldable_util.Pool.sequential ~dag ~label execs;
  check_precedence errors ~dag ~label execs ~finish:(Array.get finish)
    ~iter_execs:(fun j f -> List.iter f per_task.(j));
  check_overlaps errors ~p ~label execs;
  verdict errors
