open Moldable_sim
module J = Moldable_obs.Json

(* Simulation time is unitless; export it as microseconds so traces of
   typical makespans (1..1e3) land in a comfortable zoom range. *)
let us t = J.Num (t *. 1e6)

(* "0-3,7": ascending processor ids compressed into contiguous runs. *)
let procs_range procs =
  let buf = Buffer.create 16 in
  let emit lo hi =
    if Buffer.length buf > 0 then Buffer.add_char buf ',';
    if lo = hi then Buffer.add_string buf (string_of_int lo)
    else Buffer.add_string buf (Printf.sprintf "%d-%d" lo hi)
  in
  let lo = ref procs.(0) and prev = ref procs.(0) in
  Array.iteri
    (fun idx proc ->
      if idx > 0 then
        if proc = !prev + 1 then prev := proc
        else begin
          emit !lo !prev;
          lo := proc;
          prev := proc
        end)
    procs;
  emit !lo !prev;
  Buffer.contents buf

let of_run ?label tracer (metrics : Metrics.t) =
  let label = match label with Some f -> f | None -> Printf.sprintf "t%d" in
  let attempts = Metrics.attempts metrics in
  let buf = Buffer.create 8192 in
  let first = ref true in
  (* One compact event object per line, so the file diffs line by line. *)
  let event fields =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf "  ";
    Buffer.add_string buf (J.to_string_compact (J.Obj fields))
  in
  let metadata ~tid name args =
    event
      ([ ("ph", J.Str "M"); ("pid", J.int 0) ]
      @ (match tid with Some t -> [ ("tid", J.int t) ] | None -> [])
      @ [ ("name", J.Str name); ("args", J.Obj args) ])
  in
  let counter name ts args =
    event
      [ ("name", J.Str name); ("ph", J.Str "C"); ("pid", J.int 0); ("ts", ts);
        ("args", J.Obj args) ]
  in
  Buffer.add_string buf "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  metadata ~tid:None "process_name" [ ("name", J.Str "moldable-sim") ];
  (* One lane per processor block: an attempt renders on the lane of its
     lowest processor id, which two simultaneous attempts can never share. *)
  let lanes =
    List.fold_left
      (fun acc (a : Metrics.attempt) ->
        let lane = a.Metrics.procs.(0) in
        if List.mem lane acc then acc else lane :: acc)
      [] attempts
    |> List.sort Int.compare
  in
  List.iter
    (fun lane ->
      metadata ~tid:(Some lane) "thread_name"
        [ ("name", J.Str (Printf.sprintf "procs %d.." lane)) ];
      metadata ~tid:(Some lane) "thread_sort_index"
        [ ("sort_index", J.int lane) ])
    lanes;
  List.iter
    (fun (a : Metrics.attempt) ->
      event
        [
          ( "name",
            J.Str
              (Printf.sprintf "%s#%d" (label a.Metrics.task_id)
                 a.Metrics.attempt) );
          ("cat", J.Str "attempt"); ("ph", J.Str "X"); ("pid", J.int 0);
          ("tid", J.int a.Metrics.procs.(0));
          ("ts", us a.Metrics.start);
          ("dur", us (a.Metrics.finish -. a.Metrics.start));
          ( "args",
            J.Obj
              [
                ("task", J.int a.Metrics.task_id);
                ("attempt", J.int a.Metrics.attempt);
                ("nprocs", J.int a.Metrics.nprocs);
                ("procs", J.Str (procs_range a.Metrics.procs));
                ( "outcome",
                  J.Str (if a.Metrics.failed then "failed" else "completed")
                );
              ] );
        ])
    attempts;
  List.iter
    (fun (i : Tracer.instant) ->
      let name =
        match i.Tracer.kind with
        | Tracer.Ready -> Printf.sprintf "ready %s" (label i.Tracer.subject)
        | Tracer.Deferred ->
          Printf.sprintf "deferred %s" (label i.Tracer.subject)
        | Tracer.Stall -> "stall"
      in
      event
        [
          ("name", J.Str name); ("cat", J.Str "scheduler"); ("ph", J.Str "i");
          ("pid", J.int 0); ("tid", J.int 0); ("s", J.Str "p");
          ("ts", us i.Tracer.time);
        ])
    (Tracer.instants tracer);
  (* Counter tracks: free processors from the busy timeline, and the
     ready-queue depth sampled at every scheduling instant. *)
  let utilization = Metrics.utilization metrics in
  let p = Schedule.p metrics.Metrics.schedule in
  List.iter
    (fun (s : Metrics.segment) ->
      counter "free processors" (us s.Metrics.t0)
        [ ("free", J.int (p - s.Metrics.busy)) ])
    utilization;
  (match List.rev utilization with
  | last :: _ ->
    counter "free processors" (us last.Metrics.t1)
      [ ("free", J.int p) ]
  | [] -> ());
  List.iter
    (fun (time, depth) ->
      counter "ready queue" (us time) [ ("depth", J.int depth) ])
    (Metrics.queue_depth metrics);
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf
