type event =
  | Ready of int
  | Start of int * int
  | Finish of int
  | Failed of int * int

type attempt = {
  task_id : int;
  attempt : int;
  start : float;
  finish : float;
  nprocs : int;
  procs : int array;
  failed : bool;
}

let kind_ready = 0
let kind_start = 1
let kind_finish = 2
let kind_failed = 3

let decode code arg =
  let tid = code lsr 2 in
  match code land 3 with
  | 0 -> Ready tid
  | 1 -> Start (tid, arg)
  | 2 -> Finish tid
  | _ -> Failed (tid, arg)

let decode_events ~len ~time ~code ~arg k0 =
  let lst = ref [] in
  for k = len - 1 downto Int.max 0 k0 do
    lst := (time k, decode (code k) (arg k)) :: !lst
  done;
  !lst

type counters = {
  mutable events : int;
  mutable batches : int;
  mutable launches : int;
  mutable retries : int;
  mutable stall_checks : int;
}

let make_counters () =
  { events = 0; batches = 0; launches = 0; retries = 0; stall_checks = 0 }

type t = {
  schedule : Schedule.t;
  counters : counters;
  lean : bool;
  times : float array;
  codes : int array;
  args : int array;
  blocks : int array;
  failed : int array;
  depth_times : float array;
  depths : int array;
}

let make ~schedule ~counters ~times ~codes ~args ~blocks ~failed
    ~depth_times ~depths =
  { schedule; counters; lean = false; times; codes; args; blocks; failed;
    depth_times; depths }

let lean ~schedule ~counters =
  { schedule; counters; lean = true; times = [||]; codes = [||]; args = [||];
    blocks = [||]; failed = [||]; depth_times = [||]; depths = [||] }

(* ------------------------------------------------------------------ views *)

(* Tasks the views cover: the schedule's, 0 for a lean run. *)
let n_tasks t = if t.lean then 0 else Schedule.n t.schedule
let n_events t = Array.length t.times

let events_from t k0 =
  decode_events ~len:(n_events t) ~time:(Array.get t.times)
    ~code:(Array.get t.codes) ~arg:(Array.get t.args) k0

(* Replays the trace: a [Start] opens its task's attempt with its
   allocation, the next [Finish]/[Failed] of the task closes it at that
   event's instant.  A success runs on the task's placement, the k-th
   failure on the k-th recorded failed block. *)
let attempts t =
  let n = n_tasks t in
  let start = Array.make n 0. and attempt_no = Array.make n 0 in
  let nprocs = Array.make n 0 in
  let n_failed = ref 0 and acc = ref [] in
  for k = 0 to n_events t - 1 do
    let code = t.codes.(k) in
    let tid = code lsr 2 in
    let kind = code land 3 in
    if kind = kind_start then begin
      start.(tid) <- t.times.(k);
      attempt_no.(tid) <- attempt_no.(tid) + 1;
      nprocs.(tid) <- t.args.(k)
    end
    else if kind <> kind_ready then begin
      let failed = kind = kind_failed in
      let procs =
        if failed then begin
          let j = 2 * !n_failed in
          incr n_failed;
          Platform.ids_of_pairs t.blocks ~off:t.failed.(j)
            ~len:t.failed.(j + 1)
        end
        else Schedule.procs t.schedule tid
      in
      acc :=
        { task_id = tid; attempt = attempt_no.(tid); start = start.(tid);
          finish = t.times.(k); nprocs = nprocs.(tid); procs; failed }
        :: !acc
    end
  done;
  List.sort
    (fun (x : attempt) (y : attempt) ->
      match Float.compare x.start y.start with
      | 0 -> (
        match Int.compare x.task_id y.task_id with
        | 0 -> Int.compare x.attempt y.attempt
        | c -> c)
      | c -> c)
    !acc

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

(* Folds [f] over the maximal busy segments, in time order.  The trace is
   chronological, so its attempt endpoints ([Start]: +nprocs, [Finish] and
   [Failed]: -nprocs of the task's running attempt) arrive already sorted;
   simultaneous endpoints collapse into one breakpoint. *)
let fold_segments t f init =
  let nprocs = Array.make (n_tasks t) 0 in
  let acc = ref init and busy = ref 0 and cursor = ref infinity in
  for k = 0 to n_events t - 1 do
    let code = t.codes.(k) in
    let kind = code land 3 in
    if kind <> kind_ready then begin
      let tid = code lsr 2 and time = t.times.(k) in
      if time > !cursor then
        acc := f !acc { t0 = !cursor; t1 = time; busy = !busy };
      if kind = kind_start then begin
        nprocs.(tid) <- t.args.(k);
        busy := !busy + nprocs.(tid)
      end
      else busy := !busy - nprocs.(tid);
      cursor := time
    end
  done;
  !acc

let utilization t = List.rev (fold_segments t (fun acc s -> s :: acc) [])

let queue_depth t =
  List.init (Array.length t.depths) (fun k -> (t.depth_times.(k), t.depths.(k)))

(* First reveal, first start, attempt count and summed attempt durations
   per task, replayed from the trace in the order the run recorded them. *)
let tasks t =
  let n = n_tasks t in
  let ready = Array.make n nan and start = Array.make n nan in
  let run_start = Array.make n 0. and service = Array.make n 0. in
  let attempts = Array.make n 0 in
  for k = 0 to n_events t - 1 do
    let code = t.codes.(k) in
    let kind = code land 3 in
    let tid = code lsr 2 and now = t.times.(k) in
    if kind = kind_ready then begin
      if Float.is_nan ready.(tid) then ready.(tid) <- now
    end
    else if kind = kind_start then begin
      if Float.is_nan start.(tid) then start.(tid) <- now;
      run_start.(tid) <- now;
      attempts.(tid) <- attempts.(tid) + 1
    end
    else service.(tid) <- service.(tid) +. (now -. run_start.(tid))
  done;
  Array.init n (fun i ->
      {
        task_id = i;
        ready = ready.(i);
        start = start.(i);
        finish = t.schedule.Schedule.finishes.(i);
        wait = start.(i) -. ready.(i);
        service = service.(i);
        attempts = attempts.(i);
      })

(* Busy area and span, folded together in time order. *)
let add_segment (area, span) s =
  (area +. (float_of_int s.busy *. (s.t1 -. s.t0)), Float.max span s.t1)

let utilization_of t (area, horizon) =
  if (not (Float.is_finite horizon)) || horizon <= 0. then 0.
  else area /. (float_of_int (Schedule.p t.schedule) *. horizon)

let average_utilization t =
  utilization_of t (fold_segments t add_segment (0., 0.))
let max_queue_depth t = Array.fold_left Int.max 0 t.depths

(* Wait statistics skip non-finite samples (a wait is NaN when a task never
   started, e.g. in a partially-built report) and return 0 on an empty run,
   so downstream aggregation and JSON export never see NaN.  Mean and max
   come from one pass over one [tasks] replay. *)
let wait_stats stats =
  let n = ref 0 and sum = ref 0. and max = ref 0. in
  Array.iter
    (fun ts ->
      if Float.is_finite ts.wait then begin
        incr n;
        sum := !sum +. ts.wait;
        max := Float.max !max ts.wait
      end)
    stats;
  ((if !n = 0 then 0. else !sum /. float_of_int !n), !max)

let mean_wait t = fst (wait_stats (tasks t))
let max_wait t = snd (wait_stats (tasks t))

(* ------------------------------------------------------------------ export *)

(* One pass over the trace for the segments (busy area and span fold over
   their list, in the same order) and one for the tasks. *)
let to_json t =
  let module J = Moldable_obs.Json in
  let c = t.counters in
  let segments = utilization t in
  let area_span = List.fold_left add_segment (0., 0.) segments in
  J.Obj
    [
      ( "counters",
        J.Obj
          [
            ("events", J.int c.events); ("batches", J.int c.batches);
            ("launches", J.int c.launches); ("retries", J.int c.retries);
            ("stall_checks", J.int c.stall_checks);
          ] );
      ("p", J.int (Schedule.p t.schedule));
      ("busy_area", J.Num (fst area_span));
      ("average_utilization", J.Num (utilization_of t area_span));
      ( "utilization",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [ ("t0", J.Num s.t0); ("t1", J.Num s.t1);
                   ("busy", J.int s.busy) ])
             segments) );
      ( "queue_depth",
        J.List
          (List.map
             (fun (time, depth) ->
               J.Obj [ ("time", J.Num time); ("depth", J.int depth) ])
             (queue_depth t)) );
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
                (tasks t))) );
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
    (utilization t);
  Buffer.contents buf

let queue_depth_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "time,depth\n";
  List.iter
    (fun (time, depth) ->
      Buffer.add_string buf (Printf.sprintf "%s,%d\n" (f time) depth))
    (queue_depth t);
  Buffer.contents buf

let tasks_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "task,ready,start,finish,wait,service,attempts\n";
  Array.iter
    (fun ts ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%s,%s,%s,%s,%s,%d\n" ts.task_id (f ts.ready)
           (f ts.start) (f ts.finish) (f ts.wait) (f ts.service) ts.attempts))
    (tasks t);
  Buffer.contents buf

let pp ppf t =
  let mean_wait, max_wait = wait_stats (tasks t) in
  Format.fprintf ppf
    "events=%d batches=%d launches=%d retries=%d stall_checks=%d util=%.1f%% \
     max_queue=%d mean_wait=%.4f max_wait=%.4f"
    t.counters.events t.counters.batches t.counters.launches t.counters.retries
    t.counters.stall_checks
    (100. *. average_utilization t)
    (max_queue_depth t) mean_wait max_wait
