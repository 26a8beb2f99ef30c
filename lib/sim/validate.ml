open Moldable_model
open Moldable_graph
module Fcmp = Moldable_util.Fcmp

let add errors fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt

(* The three feasibility checks run over executions, held as flat
   arrays: execution [k] runs task [task.(k)] from [start.(k)] to
   [finish.(k)] on [nprocs.(k)] processors, and [label k] names it in
   messages.  A placement is a single successful attempt, so [check]
   passes each placement and [check_attempts] every attempt, failed ones
   included. *)
type execs = {
  m : int;
  task : int array;
  start : float array;
  finish : float array;
  nprocs : int array;
}

(* Durations, in execution order. *)
let check_durations errors ~dag ~label x =
  for k = 0 to x.m - 1 do
    let nprocs = x.nprocs.(k) in
    let expected = Task.time (Dag.task dag x.task.(k)) nprocs in
    let actual = x.finish.(k) -. x.start.(k) in
    if not (Fcmp.approx ~eps:1e-6 expected actual) then
      add errors "%s on %d procs should run %.9g time units but runs %.9g"
        (label k) nprocs expected actual
  done

(* Precedence against successful completions: [finish.(i)] is NaN when task
   [i] never succeeded.  Every float comparison with NaN is false, so that
   case is flagged explicitly or the whole downstream subgraph would be
   silently accepted.  [runs.(j)] lists task [j]'s executions.  Walking
   each task's ascending successor list in id order visits the edges in
   lexicographic order. *)
let rec check_runs errors ~label ~finish x i j = function
  | [] -> ()
  | k :: ks ->
    let fi = finish.(i) and start = x.start.(k) in
    if Float.is_nan fi then
      add errors
        "edge (%d,%d) violated: %s ran although predecessor %d never \
         succeeded"
        i j (label k) i
    else if Fcmp.lt ~eps:1e-6 start fi then
      add errors
        "edge (%d,%d) violated: %s starts at %.9g before %d finishes at %.9g"
        i j (label k) start i fi;
    check_runs errors ~label ~finish x i j ks

let rec check_successors errors ~label ~finish ~runs x i = function
  | [] -> ()
  | j :: js ->
    check_runs errors ~label ~finish x i j runs.(j);
    check_successors errors ~label ~finish ~runs x i js

let check_precedence errors ~dag ~label ~finish ~runs x =
  for i = 0 to Dag.n dag - 1 do
    check_successors errors ~label ~finish ~runs x i (Dag.successors dag i)
  done

(* Whether no processor runs two of the schedule's first [m] placements at
   once, decided by replaying the sweep's events on a platform, a word at
   a time: a start claims its block, which fails if a processor of it is
   busy, and a finish releases the block if its placement has started.  Up
   to the first conflict this is the per-processor sweep below, with a
   busy processor for each one it owns. *)
let disjoint (s : Schedule.t) events m =
  let platform = Platform.create s.p in
  let started = Bytes.make m '\000' in
  let ok = ref true and e = ref 0 in
  while !ok && !e < 2 * m do
    let ev = events.(!e) in
    let k = ev lsr 1 in
    let off = s.offsets.(k) and len = s.lengths.(k) in
    if ev land 1 = 1 then begin
      Bytes.set started k '\001';
      ok := Platform.claim_pairs platform s.pairs ~off ~len
    end
    else if Bytes.get started k <> '\000' then
      Platform.release_pairs platform s.pairs ~off ~len;
    incr e
  done;
  !ok

(* Processor disjointness: a sweep over the executions' events.  Event [2k]
   is execution [k]'s finish and event [2k + 1] its start.  They are sorted
   by time under [Float.compare] (NaN first, [-0.] equal to [0.]), then
   finishes before starts, so that back-to-back reuse of a processor is
   legal, then by execution index, descending.  The order is total, so
   the sort has one result.  Over a [schedule]'s blocks, the word-mask
   sweep decides, in O(m log m + the blocks' words) time and O(m + P / 62)
   memory, and only when it finds a conflict does the per-processor sweep
   over [procs k] rerun the events to name every conflict.  Attempts,
   which hold their ids, go straight to the per-processor sweep. *)
let check_overlaps errors ~p ~label ~procs ?schedule x =
  let m = x.m in
  let times = Float.Array.create (2 * m) in
  for k = 0 to m - 1 do
    Float.Array.set times (2 * k) x.finish.(k);
    Float.Array.set times ((2 * k) + 1) x.start.(k)
  done;
  let events = Array.init (2 * m) Fun.id in
  Array.stable_sort
    (fun a b ->
      match Float.compare (Float.Array.get times a) (Float.Array.get times b) with
      | 0 ->
        if a land 1 = b land 1 then Int.compare b a
        else (a land 1) - (b land 1)
      | c -> c)
    events;
  match schedule with
  | Some s when disjoint s events m -> ()
  | Some _ | None ->
    let occupied = Array.make p (-1) in
    for e = 0 to (2 * m) - 1 do
      let ev = events.(e) in
      let k = ev lsr 1 in
      let procs = procs k in
      if ev land 1 = 0 then
        for q = 0 to Array.length procs - 1 do
          if occupied.(procs.(q)) = k then occupied.(procs.(q)) <- -1
        done
      else
        for q = 0 to Array.length procs - 1 do
          let proc = procs.(q) in
          let owner = occupied.(proc) in
          if owner >= 0 then
            add errors "processor %d used by %s and %s simultaneously" proc
              (label owner) (label k)
          else occupied.(proc) <- k
        done
    done

let verdict errors = match !errors with [] -> Ok () | es -> Error (List.rev es)

let check ~dag sched =
  let errors = ref [] in
  let n = Dag.n dag in
  if Schedule.n sched <> n then
    add errors "schedule has %d tasks but the graph has %d" (Schedule.n sched)
      n;
  let m = Int.min n (Schedule.n sched) in
  let x =
    {
      m;
      task = Array.init m Fun.id;
      start = sched.Schedule.starts;
      finish = sched.Schedule.finishes;
      nprocs = sched.Schedule.counts;
    }
  in
  let label = Printf.sprintf "task %d" in
  let finish = Array.make n nan in
  Array.blit sched.Schedule.finishes 0 finish 0 m;
  check_durations errors ~dag ~label x;
  check_precedence errors ~dag ~label ~finish x
    ~runs:(Array.init n (fun j -> if j < m then [ j ] else []));
  check_overlaps errors ~p:(Schedule.p sched) ~label x
    ~procs:(Schedule.procs sched) ~schedule:sched;
  verdict errors

let check_attempts ~dag ~p attempts =
  let errors = ref [] in
  let n = Dag.n dag in
  let atts = Array.of_list attempts in
  let field f = Array.map f atts in
  let x =
    {
      m = Array.length atts;
      task = field (fun (a : Metrics.attempt) -> a.task_id);
      start = field (fun (a : Metrics.attempt) -> a.start);
      finish = field (fun (a : Metrics.attempt) -> a.finish);
      nprocs = field (fun (a : Metrics.attempt) -> a.nprocs);
    }
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
  check_durations errors ~dag ~label x;
  check_precedence errors ~dag ~label ~finish ~runs:per_task x;
  check_overlaps errors ~p ~label x
    ~procs:(fun k -> atts.(k).procs);
  verdict errors

let fail_on what = function
  | Ok () -> ()
  | Error es -> failwith (what ^ ":\n  " ^ String.concat "\n  " es)

let check_exn ~dag sched = fail_on "invalid schedule" (check ~dag sched)

let check_attempts_exn ~dag ~p attempts =
  fail_on "invalid attempts" (check_attempts ~dag ~p attempts)
