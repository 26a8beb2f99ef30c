type counters = {
  mutable events : int;
  mutable batches : int;
  mutable launches : int;
  mutable retries : int;
  mutable stall_checks : int;
}

let make_counters () =
  { events = 0; batches = 0; launches = 0; retries = 0; stall_checks = 0 }

type segment = { t0 : float; t1 : float; busy : int }

type task_stat = {
  task_id : int;
  ready : float;
  start : float;
  finish : float;
  wait : float;
  service : float;
  attempts : int;
}

type t = {
  p : int;
  counters : counters;
  utilization : segment list;
  queue_depth : (float * int) list;
  tasks : task_stat array;
}

(* Sweep over the execution spans (attempt start/finish/nprocs) to recover
   the busy-processor timeline; simultaneous endpoints collapse into one
   breakpoint so segments are maximal. *)
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
      let acc = if time > cursor then { t0 = cursor; t1 = time; busy } :: acc else acc in
      sweep acc (busy + delta) time rest
  in
  match deltas with [] -> [] | (t0, _) :: _ -> sweep [] 0 t0 deltas

let build ~p ~counters ~queue_depth ~tasks ~spans =
  { p; counters; utilization = timeline_of_spans spans; queue_depth; tasks }

let busy_area t =
  List.fold_left
    (fun acc s -> acc +. (float_of_int s.busy *. (s.t1 -. s.t0)))
    0. t.utilization

let span t =
  List.fold_left (fun acc s -> Float.max acc s.t1) 0. t.utilization

let average_utilization t =
  let horizon = span t in
  if (not (Float.is_finite horizon)) || horizon <= 0. then 0.
  else busy_area t /. (float_of_int t.p *. horizon)

let max_queue_depth t =
  List.fold_left (fun acc (_, d) -> max acc d) 0 t.queue_depth

(* Wait statistics skip non-finite samples (a wait is NaN when a task never
   started, e.g. in a partially-built report) and return 0 on an empty run,
   so downstream aggregation and JSON export never see NaN. *)
let mean_wait t =
  let n = ref 0 and sum = ref 0. in
  Array.iter
    (fun ts ->
      if Float.is_finite ts.wait then begin
        incr n;
        sum := !sum +. ts.wait
      end)
    t.tasks;
  if !n = 0 then 0. else !sum /. float_of_int !n

let max_wait t =
  Array.fold_left
    (fun acc ts -> if Float.is_finite ts.wait then Float.max acc ts.wait else acc)
    0. t.tasks

(* ------------------------------------------------------------------ export *)

let to_json t =
  let module J = Moldable_obs.Json in
  let c = t.counters in
  J.Obj
    [
      ( "counters",
        J.Obj
          [
            ("events", J.int c.events); ("batches", J.int c.batches);
            ("launches", J.int c.launches); ("retries", J.int c.retries);
            ("stall_checks", J.int c.stall_checks);
          ] );
      ("p", J.int t.p);
      ("busy_area", J.Num (busy_area t));
      ("average_utilization", J.Num (average_utilization t));
      ( "utilization",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [ ("t0", J.Num s.t0); ("t1", J.Num s.t1);
                   ("busy", J.int s.busy) ])
             t.utilization) );
      ( "queue_depth",
        J.List
          (List.map
             (fun (time, depth) ->
               J.Obj [ ("time", J.Num time); ("depth", J.int depth) ])
             t.queue_depth) );
      ( "tasks",
        J.List
          (Array.to_list
             (Array.map
                (fun ts ->
                  J.Obj
                    [
                      ("task", J.int ts.task_id); ("ready", J.Num ts.ready);
                      ("start", J.Num ts.start); ("finish", J.Num ts.finish);
                      ("wait", J.Num ts.wait); ("service", J.Num ts.service);
                      ("attempts", J.int ts.attempts);
                    ])
                t.tasks)) );
    ]

(* CSV cells print non-finite values as [null], as the JSON document
   does. *)
let f x = if Float.is_finite x then Printf.sprintf "%.12g" x else "null"

let utilization_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "t0,t1,busy\n";
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%d\n" (f s.t0) (f s.t1) s.busy))
    t.utilization;
  Buffer.contents buf

let queue_depth_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "time,depth\n";
  List.iter
    (fun (time, depth) ->
      Buffer.add_string buf (Printf.sprintf "%s,%d\n" (f time) depth))
    t.queue_depth;
  Buffer.contents buf

let tasks_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "task,ready,start,finish,wait,service,attempts\n";
  Array.iter
    (fun ts ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%s,%s,%s,%s,%s,%d\n" ts.task_id (f ts.ready)
           (f ts.start) (f ts.finish) (f ts.wait) (f ts.service) ts.attempts))
    t.tasks;
  Buffer.contents buf

let pp ppf t =
  Format.fprintf ppf
    "events=%d batches=%d launches=%d retries=%d stall_checks=%d util=%.1f%% \
     max_queue=%d mean_wait=%.4f max_wait=%.4f"
    t.counters.events t.counters.batches t.counters.launches t.counters.retries
    t.counters.stall_checks
    (100. *. average_utilization t)
    (max_queue_depth t) (mean_wait t) (max_wait t)
