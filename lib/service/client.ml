open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_core
module Json = Moldable_obs.Json

type t = { fd : Unix.file_descr; input : Linebuf.t; mutable live : bool }

let wrap_unix f =
  match f () with
  | v -> Ok v
  | exception Unix.Unix_error (e, fn, _) ->
    Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | exception Failure m -> Error m

let make_conn ?(timeout = 10.) fd =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout;
  { fd; input = Linebuf.create 65536; live = true }

let connect_tcp ?timeout ~host ~port () =
  wrap_unix @@ fun () ->
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
        failwith (Printf.sprintf "host %S resolves to no address" host)
      | { Unix.h_addr_list; _ } -> h_addr_list.(0)
      | exception Not_found ->
        failwith (Printf.sprintf "cannot resolve host %S" host))
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (addr, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  make_conn ?timeout fd

let connect_unix ?timeout ~path () =
  wrap_unix @@ fun () ->
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  make_conn ?timeout fd

let close c =
  if c.live then begin
    c.live <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let write_all c s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      match Unix.write c.fd b off (len - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let rec read_line c =
  let nl = Linebuf.newline c.input in
  if nl >= 0 then Linebuf.take_line c.input nl
  else
    match Linebuf.read c.input c.fd with
    | 0 -> failwith "connection closed by server"
    | _ -> read_line c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      failwith "timed out waiting for the server's response"

let request c json =
  if not c.live then Error "connection is closed"
  else
    match
      wrap_unix @@ fun () ->
      write_all c (Json.to_string_compact json ^ "\n");
      read_line c
    with
    | Error _ as e -> e
    | Ok line -> (
      match Json.of_string line with
      | Error e -> Error (Printf.sprintf "unparsable response: %s" e)
      | Ok j -> Ok j)

let rpc c req =
  match Protocol.request_to_json req with
  | Error _ as e -> e
  | Ok j -> (
    match request c j with
    | Error _ as e -> e
    | Ok resp -> (
      match Json.member "ok" resp with
      | Some (Json.Bool true) -> Ok resp
      | Some (Json.Bool false) ->
        let get name =
          match Json.member name resp with
          | Some (Json.Str s) -> s
          | _ -> "?"
        in
        Error (Printf.sprintf "%s: %s" (get "error") (get "message"))
      | _ -> Error "response carries no \"ok\" field"))

let fetch_metrics c =
  match rpc c Protocol.Metrics with
  | Error _ as e -> e
  | Ok resp -> (
    match Json.member "openmetrics" resp with
    | Some (Json.Str s) -> Ok s
    | _ -> Error "metrics response carries no \"openmetrics\" field")

(* ----------------------------------------------------------------- replay *)

type replay_report = {
  n_tasks : int;
  server_makespan : float;
  local_makespan : float;
  identical : bool;
  mismatch : string option;
}

let ( let* ) = Result.bind

let field name conv resp =
  match Option.bind (Json.member name resp) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "response carries no %S field" name)

let submit_all c ?release_times dag =
  let n = Dag.n dag in
  let rec go i =
    if i >= n then Ok ()
    else
      let task = Dag.task dag i in
      let spec =
        {
          Protocol.s_label = task.Task.label;
          s_speedup = task.Task.speedup;
          s_deps = Dag.predecessors dag i;
          s_release =
            (match release_times with None -> 0. | Some r -> r.(i));
        }
      in
      let* resp = rpc c (Protocol.Submit spec) in
      let* id = field "id" Json.to_int resp in
      if id <> i then
        Error (Printf.sprintf "server assigned id %d to task %d" id i)
      else go (i + 1)
  in
  go 0

let compare_schedules ~dag ~server_placements (local : Schedule.t) =
  let n = Dag.n dag in
  let by_task = Array.make n None in
  let rec index = function
    | [] -> Ok ()
    | (pl : Schedule.placement) :: rest ->
      if pl.Schedule.task_id < 0 || pl.Schedule.task_id >= n then
        Error (Printf.sprintf "server placement for unknown task %d" pl.task_id)
      else begin
        by_task.(pl.Schedule.task_id) <- Some pl;
        index rest
      end
  in
  let* () = index server_placements in
  let mismatch = ref None in
  let check i =
    if !mismatch = None then
      match by_task.(i) with
      | None -> mismatch := Some (Printf.sprintf "task %d: no server placement" i)
      | Some spl ->
        let lpl = Schedule.placement local i in
        if
          spl.Schedule.start <> lpl.Schedule.start
          || spl.Schedule.finish <> lpl.Schedule.finish
          || spl.Schedule.nprocs <> lpl.Schedule.nprocs
          || spl.Schedule.procs <> lpl.Schedule.procs
        then
          mismatch :=
            Some
              (Printf.sprintf
                 "task %d: server [%.17g, %.17g) on %d procs vs local \
                  [%.17g, %.17g) on %d procs"
                 i spl.Schedule.start spl.Schedule.finish spl.Schedule.nprocs
                 lpl.Schedule.start lpl.Schedule.finish lpl.Schedule.nprocs)
  in
  for i = 0 to n - 1 do
    check i
  done;
  Ok !mismatch

let replay ?release_times ?(algorithm = `Original) ?(priority = "fifo") ~p c
    dag =
  match Protocol.priority_of_name priority with
  | None -> Error (Printf.sprintf "unknown priority rule %S" priority)
  | Some pr ->
    let* _ =
      rpc c
        (Protocol.Open
           {
             Protocol.o_p = p;
             o_algorithm = algorithm;
             o_priority = priority;
             o_seed = 0;
             o_max_attempts = None;
             o_failures = `Never;
           })
    in
    let* () = submit_all c ?release_times dag in
    let* dresp = rpc c Protocol.Drain in
    let* server_makespan = field "makespan" Json.to_float dresp in
    let* sresp = rpc c Protocol.Schedule in
    let* placements_json = field "placements" Json.to_list sresp in
    let* server_placements =
      List.fold_left
        (fun acc pj ->
          let* acc = acc in
          let* pl = Protocol.placement_of_json pj in
          Ok (pl :: acc))
        (Ok []) placements_json
    in
    let local =
      Online_scheduler.run ?release_times ~priority:pr
        ~allocator:(Protocol.allocator_of_algorithm algorithm)
        ~p dag
    in
    let local_sched = local.Sim_core.schedule in
    let local_makespan = Schedule.makespan local_sched in
    let* mismatch =
      compare_schedules ~dag ~server_placements local_sched
    in
    let mismatch =
      match mismatch with
      | Some _ as m -> m
      | None ->
        if server_makespan <> local_makespan then
          Some
            (Printf.sprintf "makespan: server %.17g vs local %.17g"
               server_makespan local_makespan)
        else None
    in
    Ok
      {
        n_tasks = Dag.n dag;
        server_makespan;
        local_makespan;
        identical = mismatch = None;
        mismatch;
      }
