open Moldable_model
open Moldable_sim
open Moldable_core
open Moldable_util
module Json = Moldable_obs.Json
module Registry = Moldable_obs.Registry

type limits = {
  max_line_bytes : int;
  max_requests : int;
  max_tasks : int;
  idle_timeout : float;
  write_timeout : float;
}

let default_limits =
  {
    max_line_bytes = 1 lsl 20;
    max_requests = max_int;
    max_tasks = 1_000_000;
    idle_timeout = 300.;
    write_timeout = 10.;
  }

type config = {
  sessions : int;
  limits : limits;
  registry : Moldable_obs.Registry.t;
}

let default_config ?(registry = Registry.null) () =
  { sessions = 2; limits = default_limits; registry }

(* -------------------------------------------------------------- listeners *)

type listener = {
  lfd : Unix.file_descr;
  descr : string;
  lport : int option;
  unix_path : string option;
  mutable live : bool;
}

let listen_tcp ~host ~port =
  match
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
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (addr, port));
       Unix.listen fd 128;
       Unix.set_nonblock fd
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    let bound_port =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, bp) -> bp
      | Unix.ADDR_UNIX _ -> port
    in
    {
      lfd = fd;
      descr = Printf.sprintf "%s:%d" host bound_port;
      lport = Some bound_port;
      unix_path = None;
      live = true;
    }
  with
  | l -> Ok l
  | exception Unix.Unix_error (e, fn, _) ->
    Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | exception Failure m -> Error m

let listen_unix ~path =
  match
    (match Unix.stat path with
    | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
    | _ -> failwith (Printf.sprintf "%s exists and is not a socket" path)
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind fd (Unix.ADDR_UNIX path);
       Unix.listen fd 128;
       Unix.set_nonblock fd
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    {
      lfd = fd;
      descr = "unix:" ^ path;
      lport = None;
      unix_path = Some path;
      live = true;
    }
  with
  | l -> Ok l
  | exception Unix.Unix_error (e, fn, _) ->
    Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | exception Failure m -> Error m

let address l = l.descr
let port l = l.lport

let close_listener l =
  if l.live then begin
    l.live <- false;
    (try Unix.close l.lfd with Unix.Unix_error _ -> ());
    match l.unix_path with
    | None -> ()
    | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  end

(* ------------------------------------------------------------- telemetry *)

type handles = {
  sessions_total : Registry.counter;
  sessions_active : Registry.gauge;
  requests_total : Registry.counter;
  protocol_errors : Registry.counter;
  evictions : Registry.counter;
  latency : Registry.histogram;
}

let make_handles reg =
  {
    sessions_total =
      Registry.counter reg ~name:"moldable_service_sessions"
        ~help:"Connections accepted by the scheduler daemon.";
    sessions_active =
      Registry.gauge reg ~name:"moldable_service_sessions_active"
        ~help:"Connections currently being served.";
    requests_total =
      Registry.counter reg ~name:"moldable_service_requests"
        ~help:"Protocol request lines received (including malformed ones).";
    protocol_errors =
      Registry.counter reg ~name:"moldable_service_protocol_errors"
        ~help:"Request lines rejected as unparsable or invalid.";
    evictions =
      Registry.counter reg ~name:"moldable_service_evictions"
        ~help:"Sessions closed because a response write stayed blocked past \
               the write timeout (slow consumer).";
    latency =
      Registry.histogram reg
        ~name:"moldable_service_decision_latency_seconds"
        ~help:"Wall-clock seconds to admit one submitted task (Task.make \
               and Stepper.admit_task; the allocator decides later, when \
               advance reveals the task).";
  }

(* --------------------------------------------------------------- sessions *)

(* Internal control flow for ending a session; never escapes [run_session]. *)
exception Session_end

type phase = Idle | Running of Sim_core.Stepper.t | Drained of Metrics.t

type session = {
  fd : Unix.file_descr;
  limits : limits;
  stop : bool Atomic.t;
  h : handles;
  registry : Registry.t;
  input : Linebuf.t;
  fields : Protocol.scratch;  (** The request being decoded. *)
  out : Buffer.t;  (** Responses rendered but not yet written. *)
  mutable phase : phase;
  mutable subscribed : bool;
  mutable ev_cursor : int;
  mutable n_requests : int;
  mutable n_tasks : int;
}

let num i = Json.Num (float_of_int i)

(* The output buffer is written out once per read batch, and sooner when
   it holds this many bytes, so a client that pipelines without reading
   cannot grow the server's memory by more than this plus one response. *)
let flush_bytes = 65536

(* Write every buffered response.  One deadline of [write_timeout] bounds
   the whole flush: a peer that stops reading is evicted once a write has
   stayed blocked past it. *)
let flush sess =
  let s = Buffer.contents sess.out in
  let len = String.length s in
  (* A huge response (a long [schedule]) does not pin its buffer. *)
  if len > flush_bytes then Buffer.reset sess.out else Buffer.clear sess.out;
  let deadline = Clock.now () +. sess.limits.write_timeout in
  let rec go off =
    if off < len then
      match Unix.write_substring sess.fd s off (len - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        raise Session_end
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        let timeout = deadline -. Clock.now () in
        if timeout <= 0. then begin
          Registry.incr sess.h.evictions;
          raise Session_end
        end;
        (match Unix.select [] [ sess.fd ] [] (Float.min timeout 0.25) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | _ -> ());
        go off
  in
  go 0

let send sess json =
  Json.to_buffer sess.out json;
  Buffer.add_char sess.out '\n';
  if Buffer.length sess.out >= flush_bytes then flush sess

(* Answer what is buffered, then end the session. *)
let finish sess =
  flush sess;
  raise Session_end

let abandon_phase sess =
  match sess.phase with
  | Running st ->
    Sim_core.Stepper.abandon st;
    sess.phase <- Idle
  | Idle | Drained _ -> ()

let events_json evs = Json.List (List.map (fun (t, e) -> Protocol.event_to_json t e) evs)

(* The new-events window appended to advance/drain responses while
   subscribed; advances the session cursor. *)
let subscription_fields sess =
  if not sess.subscribed then []
  else
    match sess.phase with
    | Running st ->
      let evs = Sim_core.Stepper.events_from st sess.ev_cursor in
      sess.ev_cursor <- Sim_core.Stepper.n_events st;
      [ ("events", events_json evs); ("next", num sess.ev_cursor) ]
    | Drained m ->
      let evs = Metrics.events_from m sess.ev_cursor in
      sess.ev_cursor <- Metrics.n_events m;
      [ ("events", events_json evs); ("next", num sess.ev_cursor) ]
    | Idle -> []

let exn_message = function
  | Sim_core.Policy_error m -> m
  | Failure m | Invalid_argument m -> m
  | e -> Printexc.to_string e

let handle_open sess (o : Protocol.open_spec) =
  match sess.phase with
  | Running _ -> (Protocol.(error Conflict) "a run is already open", `Continue)
  | Idle | Drained _ -> (
    match Protocol.priority_of_name o.Protocol.o_priority with
    | None ->
      ( Protocol.(error Bad_request)
          (Printf.sprintf "unknown priority rule %S" o.Protocol.o_priority),
        `Continue )
    | Some priority -> (
      match Protocol.failure_model_of_spec o.Protocol.o_failures with
      | Error m -> (Protocol.(error Bad_request) m, `Continue)
      | Ok failures ->
        let allocator =
          Protocol.allocator_of_algorithm o.Protocol.o_algorithm
        in
        let policy =
          Online_scheduler.policy ~priority ~allocator ~p:o.Protocol.o_p ()
        in
        let st =
          Sim_core.Stepper.create ~seed:o.Protocol.o_seed
            ?max_attempts:o.Protocol.o_max_attempts ~failures
            ~registry:sess.registry
            ~arena:(Sim_core.Arena.for_current_domain ())
            ~p:o.Protocol.o_p policy
        in
        sess.phase <- Running st;
        sess.subscribed <- false;
        sess.ev_cursor <- 0;
        sess.n_tasks <- 0;
        ( Protocol.ok
            [
              ("p", num o.Protocol.o_p);
              ( "algorithm",
                Json.Str
                  (match o.Protocol.o_algorithm with
                  | `Original -> "original"
                  | `Improved -> "improved") );
              ("priority", Json.Str o.Protocol.o_priority);
            ],
          `Continue )))

let handle_submit sess (s : Protocol.submit_spec) =
  match sess.phase with
  | Idle | Drained _ ->
    (Protocol.(error Conflict) "no open run to submit to", `Continue)
  | Running st ->
    if sess.n_tasks >= sess.limits.max_tasks then
      (Protocol.(error Limit) "per-run task budget exhausted", `Continue)
    else begin
      let t0 = Clock.now () in
      let id = Sim_core.Stepper.admitted st in
      let label =
        if s.Protocol.s_label = "" then Printf.sprintf "t%d" id
        else s.Protocol.s_label
      in
      match
        let task = Task.make ~label ~id s.Protocol.s_speedup in
        Sim_core.Stepper.admit_task st ~release_time:s.Protocol.s_release
          ~deps:s.Protocol.s_deps task
      with
      | id ->
        sess.n_tasks <- sess.n_tasks + 1;
        Registry.observe sess.h.latency (Clock.now () -. t0);
        (Protocol.ok [ ("id", num id) ], `Continue)
      | exception Invalid_argument m ->
        (Protocol.(error Bad_request) m, `Continue)
    end

let handle_advance sess until =
  match sess.phase with
  | Idle | Drained _ ->
    (Protocol.(error Conflict) "no open run to advance", `Continue)
  | Running st -> (
    match Sim_core.Stepper.advance st ~until with
    | batches ->
      ( Protocol.ok
          ([
             ("batches", num batches);
             ("now", Json.Num (Sim_core.Stepper.now st));
             ("completed", num (Sim_core.Stepper.completed st));
             ("running", num (Sim_core.Stepper.running st));
             ("ready", num (Sim_core.Stepper.ready st));
           ]
          @ subscription_fields sess),
        `Continue )
    | exception e ->
      (* Whatever the stepper raises (a policy error, or an event time
         that overflowed on extreme task parameters), the run is lost
         but the session is not. *)
      abandon_phase sess;
      (Protocol.(error Internal) (exn_message e), `Continue))

let handle_drain sess =
  match sess.phase with
  | Idle | Drained _ ->
    (Protocol.(error Conflict) "no open run to drain", `Continue)
  | Running st -> (
    match Sim_core.Stepper.drain st with
    | { Sim_core.metrics = m; _ } ->
      sess.phase <- Drained m;
      ( Protocol.ok
          ([
             ("makespan", Json.Num (Schedule.makespan m.Metrics.schedule));
             ("n_attempts", num m.Metrics.counters.Metrics.launches);
             ("n_failures", num m.Metrics.counters.Metrics.retries);
           ]
          @ subscription_fields sess),
        `Continue )
    | exception e ->
      (* [drain] closed the stepper and released the arena already. *)
      sess.phase <- Idle;
      (Protocol.(error Internal) (exn_message e), `Continue))

let handle_status sess =
  let fields =
    match sess.phase with
    | Idle -> [ ("phase", Json.Str "idle") ]
    | Running st ->
      [
        ("phase", Json.Str "running");
        ("now", Json.Num (Sim_core.Stepper.now st));
        ("admitted", num (Sim_core.Stepper.admitted st));
        ("completed", num (Sim_core.Stepper.completed st));
        ("ready", num (Sim_core.Stepper.ready st));
        ("running", num (Sim_core.Stepper.running st));
        ("free", num (Sim_core.Stepper.free_procs st));
        ("makespan_so_far", Json.Num (Sim_core.Stepper.makespan_so_far st));
        (* [infinity] when nothing is queued, which renders as [null]. *)
        ("next_event", Json.Num (Sim_core.Stepper.next_event_time st));
        ("n_events", num (Sim_core.Stepper.n_events st));
      ]
    | Drained m ->
      [
        ("phase", Json.Str "drained");
        ("makespan", Json.Num (Schedule.makespan m.Metrics.schedule));
        ("n_tasks", num (Schedule.n m.Metrics.schedule));
        ("n_attempts", num m.Metrics.counters.Metrics.launches);
        ("n_failures", num m.Metrics.counters.Metrics.retries);
      ]
  in
  (Protocol.ok fields, `Continue)

let handle_events sess since =
  match sess.phase with
  | Idle -> (Protocol.(error Conflict) "no run to report events for", `Continue)
  | Running st ->
    let evs = Sim_core.Stepper.events_from st since in
    ( Protocol.ok
        [
          ("next", num (Int.max since (Sim_core.Stepper.n_events st)));
          ("events", events_json evs);
        ],
      `Continue )
  | Drained m ->
    ( Protocol.ok
        [
          ("next", num (Int.max since (Metrics.n_events m)));
          ("events", events_json (Metrics.events_from m since));
        ],
      `Continue )

let handle_schedule sess =
  match sess.phase with
  | Drained m ->
    ( Protocol.ok
        [
          ("makespan", Json.Num (Schedule.makespan m.Metrics.schedule));
          ( "placements",
            Json.List
              (List.map Protocol.placement_to_json
                 (Schedule.placements m.Metrics.schedule)) );
        ],
      `Continue )
  | Idle | Running _ ->
    (Protocol.(error Conflict) "no drained run to read back", `Continue)

let handle_request sess req =
  match (req : Protocol.request) with
  | Protocol.Ping -> (Protocol.ok [], `Continue)
  | Protocol.Open o -> handle_open sess o
  | Protocol.Submit s -> handle_submit sess s
  | Protocol.Advance until -> handle_advance sess until
  | Protocol.Status -> handle_status sess
  | Protocol.Events since -> handle_events sess since
  | Protocol.Subscribe on ->
    (match sess.phase with
    | Running st when on && not sess.subscribed ->
      (* Subscribing mid-run starts the window at the current event. *)
      sess.ev_cursor <- Sim_core.Stepper.n_events st
    | _ -> ());
    sess.subscribed <- on;
    (Protocol.ok [ ("subscribed", Json.Bool on) ], `Continue)
  | Protocol.Drain -> handle_drain sess
  | Protocol.Schedule -> handle_schedule sess
  | Protocol.Makespan -> (
    match sess.phase with
    | Drained m ->
      ( Protocol.ok
          [ ("makespan", Json.Num (Schedule.makespan m.Metrics.schedule)) ],
        `Continue )
    | Idle | Running _ ->
      (Protocol.(error Conflict) "no drained run to read back", `Continue))
  | Protocol.Metrics ->
    let om =
      Moldable_obs.Openmetrics.of_snapshot (Registry.snapshot sess.registry)
    in
    (Protocol.ok [ ("openmetrics", Json.Str om) ], `Continue)
  | Protocol.Close -> (Protocol.ok [ ("closing", Json.Bool true) ], `End)

let handle_line sess line =
  sess.n_requests <- sess.n_requests + 1;
  Registry.incr sess.h.requests_total;
  if sess.n_requests > sess.limits.max_requests then begin
    send sess (Protocol.(error Limit) "session request budget exhausted");
    finish sess
  end;
  match
    Protocol.decode sess.fields ~max_bytes:sess.limits.max_line_bytes line
  with
  | Error (code, e) ->
    Registry.incr sess.h.protocol_errors;
    send sess (Protocol.error code e)
  | Ok req -> (
    let resp, action = handle_request sess req in
    send sess resp;
    match action with `End -> finish sess | `Continue -> ())

(* Serve every complete line read so far, then write all their responses
   at once. *)
let handle_batch sess =
  let rec lines () =
    let nl = Linebuf.newline sess.input in
    if nl >= 0 then begin
      if Atomic.get sess.stop then finish sess;
      let line = Linebuf.take_line sess.input nl in
      if line <> "" then handle_line sess line;
      lines ()
    end
  in
  lines ();
  if Linebuf.pending sess.input > sess.limits.max_line_bytes then begin
    send sess
      (Protocol.(error Limit)
         (Printf.sprintf "request line exceeds the %d-byte limit"
            sess.limits.max_line_bytes));
    finish sess
  end;
  if Buffer.length sess.out > 0 then flush sess

let run_session ~limits ~stop ~h ~registry fd =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> () (* Unix-domain sockets *));
  let sess =
    {
      fd;
      limits;
      stop;
      h;
      registry;
      input = Linebuf.create 65536;
      fields = Protocol.scratch ();
      out = Buffer.create 4096;
      phase = Idle;
      subscribed = false;
      ev_cursor = 0;
      n_requests = 0;
      n_tasks = 0;
    }
  in
  let rec wait_readable deadline =
    if Atomic.get stop then raise Session_end;
    let timeout = Float.min 0.25 (deadline -. Clock.now ()) in
    if timeout <= 0. then raise Session_end (* idle *);
    match Unix.select [ fd ] [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable deadline
    | [], _, _ -> wait_readable deadline
    | _ -> ()
  in
  (* Read first; [select] only when the socket has nothing to read. *)
  let rec loop deadline =
    match Linebuf.read sess.input fd with
    | 0 -> () (* EOF *)
    | _ ->
      handle_batch sess;
      loop (Clock.now () +. limits.idle_timeout)
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      wait_readable deadline;
      loop deadline
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
  in
  Fun.protect
    ~finally:(fun () -> abandon_phase sess)
    (fun () ->
      try loop (Clock.now () +. limits.idle_timeout)
      with Session_end -> ())

(* ----------------------------------------------------------------- serve *)

let worker ~listener ~limits ~stop ~h ~registry =
  let rec loop () =
    if not (Atomic.get stop) then begin
      (match Unix.select [ listener.lfd ] [] [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept ~cloexec:true listener.lfd with
        | fd, _ ->
          Registry.incr h.sessions_total;
          Registry.add h.sessions_active 1.;
          Fun.protect
            ~finally:(fun () ->
              Registry.add h.sessions_active (-1.);
              try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () -> run_session ~limits ~stop ~h ~registry fd)
        | exception
            Unix.Unix_error
              ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
                | Unix.ECONNABORTED ),
                _,
                _ ) ->
          ()));
      loop ()
    end
  in
  loop ()

let serve ?(stop = Atomic.make false) config listener =
  if config.sessions < 1 then
    invalid_arg "Moldable_service.Server.serve: sessions must be >= 1";
  if
    config.limits.max_line_bytes < 1
    || config.limits.idle_timeout <= 0.
    || config.limits.write_timeout <= 0.
    || config.limits.max_requests < 1
    || config.limits.max_tasks < 1
  then invalid_arg "Moldable_service.Server.serve: non-positive limit";
  (* A peer closing mid-write must surface as EPIPE, not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let h = make_handles config.registry in
  Fun.protect
    ~finally:(fun () -> close_listener listener)
    (fun () ->
      Pool.with_pool ~jobs:config.sessions ~registry:config.registry
        (fun pool ->
          Pool.parallel_for ~chunk:1 pool ~start:0
            ~finish:(config.sessions - 1) (fun _ ->
              worker ~listener ~limits:config.limits ~stop ~h
                ~registry:config.registry)))
