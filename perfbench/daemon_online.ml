(* Workload daemon_online: the scheduler daemon on loopback TCP with one
   session worker, driven by an open-loop generator on the other domain
   over one connection.

   One window streams a layered DAG (closed-form models, release times
   non-decreasing with id) as [submit] lines, with an [advance] after every
   32 submits — to just before the next task's release, the last horizon
   that keeps the run equal to the batch run — and a [status] after every
   256.  Requests are sent when due at a fixed rate and each latency runs
   from the moment the request was due until its response is read.  After
   the timed part the window sends [drain] and [schedule] and compares the
   placements with a local [Sim_core.run ~release_times] of the same DAG.

   Phases: [light] at 5,000 req/s, [heavy] at 25,000 req/s, then a ladder
   of rates up to the first rate whose p99 exceeds 1 ms, whose backlog
   grows, or whose generator falls behind. *)

open Moldable_util
open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_workloads
open Moldable_service
module Json = Moldable_obs.Json

let p = 64
let n_layers = 300
let width = 32
let window_tasks = 4000
let light_rate = 5_000.
let heavy_rate = 25_000.

let ladder =
  [ 5_000.; 10_000.; 15_000.; 20_000.; 25_000.; 30_000.; 40_000.; 50_000.; 60_000. ]

let limit_us = 1000.
let behind_us = 50.

(* ---------------------------------------------------------------- inputs *)

type kind = K_submit | K_advance | K_status

type input = {
  dag : Dag.t;
  release : float array;
  kinds : kind array;  (** Of the timed requests of a window. *)
  strings : string array;  (** Their encoded lines, without newline. *)
  lines : Bytes.t;  (** All lines, newline-terminated, back to back. *)
  ends : int array;  (** [ends.(i)]: offset just past line [i]. *)
  local : Schedule.t;  (** The batch run the daemon must reproduce. *)
}

let line req =
  match Protocol.request_to_json req with
  | Ok j -> Json.to_string_compact j
  | Error e -> failwith e

let closed_kinds =
  [|
    Speedup.Kind_roofline;
    Speedup.Kind_communication;
    Speedup.Kind_amdahl;
    Speedup.Kind_general;
  |]

let make_input seed =
  let rng = Rng.create seed in
  let dag =
    let full =
      Random_dag.layered ~rng ~n_layers ~width ~edge_prob:0.1
        ~kind:Speedup.Kind_general ()
    in
    (* The first [window_tasks] ids: a prefix of a layer-major DAG is
       closed under predecessors. *)
    let n = min window_tasks (Dag.n full) in
    Dag.create
      ~tasks:(List.init n (Dag.task full))
      ~edges:(List.filter (fun (_, b) -> b < n) (Dag.edges full))
    |> Dag.map_tasks (fun t ->
           let kind = closed_kinds.(t.Task.id mod Array.length closed_kinds) in
           Task.make ~label:t.Task.label ~id:t.Task.id (Params.random rng kind))
  in
  let n = Dag.n dag in
  (* Arrivals spread evenly over the Lemma 2 lower bound: the platform
     stays busy while tasks keep arriving. *)
  let span = (Bounds.compute ~p dag).Bounds.lower_bound in
  let release = Array.init n (fun i -> span *. float_of_int i /. float_of_int n) in
  let reqs = ref [] in
  let push k r = reqs := (k, r) :: !reqs in
  for i = 0 to n - 1 do
    let task = Dag.task dag i in
    push K_submit
      (Protocol.Submit
         {
           Protocol.s_label = task.Task.label;
           s_speedup = task.Task.speedup;
           s_deps = List.sort_uniq compare (Dag.predecessors dag i);
           s_release = release.(i);
         });
    if (i + 1) mod 32 = 0 || i = n - 1 then begin
      let horizon =
        if i + 1 < n then
          let r = release.(i + 1) in
          Float.max 0. (r -. (1e-9 *. Float.max 1. r))
        else release.(n - 1)
      in
      push K_advance (Protocol.Advance horizon)
    end;
    if (i + 1) mod 256 = 0 then push K_status Protocol.Status
  done;
  let all = Array.of_list (List.rev !reqs) in
  let requests = Array.map snd all and kinds = Array.map fst all in
  let strings = Array.map line requests in
  let buf = Buffer.create (1 lsl 20) in
  let ends =
    Array.map
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n';
        Buffer.length buf)
      strings
  in
  let local =
    (Sim_core.run ~release_times:release ~p (Layers.algorithm1 ~p ()) dag)
      .Sim_core.schedule
  in
  { dag; release; kinds; strings; lines = Buffer.to_bytes buf; ends; local }

let open_line =
  line
    (Protocol.Open
       {
         Protocol.o_p = p;
         o_algorithm = `Original;
         o_priority = "fifo";
         o_seed = 0;
         o_max_attempts = None;
         o_failures = `Never;
       })

(* ------------------------------------------------------------ connection *)

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
}

exception Closed

(* One non-blocking read into the buffer; the number of bytes read. *)
let fill c =
  if c.lo > 0 && c.hi = Bytes.length c.buf then begin
    Bytes.blit c.buf c.lo c.buf 0 (c.hi - c.lo);
    c.hi <- c.hi - c.lo;
    c.lo <- 0
  end;
  if c.hi = Bytes.length c.buf then begin
    let b = Bytes.create (2 * Bytes.length c.buf) in
    Bytes.blit c.buf 0 b 0 c.hi;
    c.buf <- b
  end;
  match Unix.read c.fd c.buf c.hi (Bytes.length c.buf - c.hi) with
  | 0 -> raise Closed
  | k ->
    c.hi <- c.hi + k;
    k
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> 0

(* The next complete line as (offset, length), consumed; or -1. *)
let next_line c =
  let rec scan i =
    if i >= c.hi then -1
    else if Bytes.unsafe_get c.buf i = '\n' then i
    else scan (i + 1)
  in
  let nl = scan c.lo in
  if nl < 0 then (-1, 0)
  else begin
    let off = c.lo in
    c.lo <- nl + 1;
    if c.lo = c.hi then begin
      c.lo <- 0;
      c.hi <- 0
    end;
    (off, nl - off)
  end

let ok_prefix = "{\"ok\": true"

let is_ok c off len =
  let k = String.length ok_prefix in
  len >= k
  &&
  let rec eq i = i >= k || (Bytes.unsafe_get c.buf (off + i) = ok_prefix.[i] && eq (i + 1)) in
  eq 0

let wait_readable c seconds =
  match Unix.select [ c.fd ] [] [] seconds with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | _ -> ()

let write_all c s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      match Unix.single_write c.fd b off (Bytes.length b - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        (match Unix.select [] [ c.fd ] [] 1.0 with _ -> ());
        go off
  in
  go 0

(* Blocking read of one whole response line (bounded by [timeout]). *)
let read_line ?(timeout = 30.) c =
  let t_end = Mono.now () + int_of_float (timeout *. 1e9) in
  let rec go () =
    match next_line c with
    | off, len when off >= 0 -> Bytes.sub_string c.buf off len
    | _ ->
      if Mono.now () > t_end then failwith "daemon response timed out";
      if fill c = 0 then wait_readable c 0.05;
      go ()
  in
  go ()

let rpc c s =
  write_all c (s ^ "\n");
  read_line c

(* ---------------------------------------------------------------- windows *)

type window = {
  lat_us : float array;  (** Per request, from due time to response read. *)
  lag_us : float array;  (** Per request, how late the generator sent it. *)
  backlog : int;  (** Unanswered requests when the last one was sent. *)
  errors : int;  (** Error responses and missing responses. *)
  equal : bool;  (** The drained schedule equals the local run. *)
  gc : Mono.gc;  (** Allocation and collections during the timed part. *)
}

let sp_request = lazy (Mono.Span.intern "daemon.request")

let same_schedule (local : Schedule.t) resp =
  match Json.of_string resp with
  | Error _ -> false
  | Ok j -> (
    match Option.bind (Json.member "placements" j) Json.to_list with
    | None -> false
    | Some pls ->
      let n = Schedule.n local in
      let seen = Array.make n false in
      List.length pls = n
      && List.for_all
           (fun pj ->
             match Protocol.placement_of_json pj with
             | Error _ -> false
             | Ok (pl : Schedule.placement) ->
               let id = pl.Schedule.task_id in
               id >= 0 && id < n
               && (not seen.(id))
               &&
               let l = Schedule.placement local id in
               seen.(id) <- true;
               pl.Schedule.start = l.Schedule.start
               && pl.Schedule.finish = l.Schedule.finish
               && pl.Schedule.nprocs = l.Schedule.nprocs
               && pl.Schedule.procs = l.Schedule.procs)
           pls)

(* The open loop of one window at [rate] requests per second. *)
let stream c input ~rate =
  let m = Array.length input.ends in
  let lat = Array.make m 0 and lag = Array.make m 0 in
  let period = 1e9 /. rate in
  let t0 = Mono.now () + 100_000 in
  let due i = t0 + int_of_float (float_of_int i *. period) in
  let sent = ref 0 and written = ref 0 and recv = ref 0 in
  let errors = ref 0 and backlog = ref 0 in
  let give_up = due (m - 1) + 10_000_000_000 in
  let sp = Lazy.force sp_request in
  (try
     while !recv < m do
       let now = Mono.now () in
       if now > give_up then raise Exit;
       let progressed = ref false in
       while !sent < m && due !sent <= now do
         lag.(!sent) <- now - due !sent;
         incr sent;
         if !sent = m then backlog := m - !recv
       done;
       let target = if !sent = 0 then 0 else input.ends.(!sent - 1) in
       if !written < target then begin
         match Unix.single_write c.fd input.lines !written (target - !written) with
         | k ->
           written := !written + k;
           progressed := true
         | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
       end;
       if !recv < !sent && fill c > 0 then begin
         let tr = Mono.now () in
         progressed := true;
         let rec consume () =
           let off, len = next_line c in
           if off >= 0 then begin
             if !recv < m then begin
               let d = due !recv in
               lat.(!recv) <- tr - d;
               if not (is_ok c off len) then incr errors;
               ignore (Mono.Span.add sp d tr);
               incr recv
             end;
             consume ()
           end
         in
         consume ()
       end;
       if not !progressed then begin
         (* Spin on the clock between reads rather than sleep: on a virtual
            machine an idle vCPU takes milliseconds to wake, which would
            show up as generator lateness. *)
         let wait = (if !sent < m then due !sent else max_int) - Mono.now () in
         let until = Mono.now () + max 0 (min wait 3_000) in
         while Mono.now () < until do
           ()
         done
       end
     done
   with Exit -> errors := !errors + (m - !recv));
  let us a = Array.map (fun x -> float_of_int x *. 1e-3) a in
  (us lat, us lag, !backlog, !errors)

(* Opens a run, settles the heap (so that garbage from the previous
   window's verification is not collected inside this window's timed
   part), runs [timed], then drains, reads the schedule back and compares
   it with the local run.  Returns [timed]'s result, the error responses
   to [open] and [drain], and whether the schedules are equal. *)
let in_run c input timed =
  let opened = rpc c open_line in
  Gc.full_major ();
  let x = timed () in
  let drained = rpc c (line Protocol.Drain) in
  let sched = rpc c (line Protocol.Schedule) in
  let bad s =
    let k = String.length ok_prefix in
    if String.length s >= k && String.sub s 0 k = ok_prefix then 0 else 1
  in
  (x, bad opened + bad drained, same_schedule input.local sched)

let run_window c input ~rate =
  let (lat_us, lag_us, backlog, errors, gc), bad, equal =
    in_run c input (fun () ->
        let g0 = Mono.gc () in
        let lat_us, lag_us, backlog, errors = stream c input ~rate in
        (lat_us, lag_us, backlog, errors, Mono.gc_diff g0 (Mono.gc ())))
  in
  { lat_us; lag_us; backlog; errors = errors + bad; equal; gc }

type phase = {
  rate : float;
  windows : window list;
  p50 : float;  (** Median over valid windows of the window p50. *)
  p99 : float;  (** Median over valid windows of the window p99. *)
  lag_p99 : float;  (** Median over windows of the generator's p99 lag. *)
  valid : bool;  (** At least one window where the generator kept up. *)
  backlog_ok : bool;
  requests : int;
}

let phase_summary ~rate windows =
  let lag99 w = Mono.percentile w.lag_us 99. in
  let valid_ws =
    List.filter (fun w -> Mono.percentile w.lag_us 50. <= behind_us) windows
  in
  let med f l = Mono.median (Array.of_list (List.map f l)) in
  let backlogs = med (fun w -> float_of_int w.backlog) windows in
  {
    rate;
    windows;
    p50 = (if valid_ws = [] then nan else med (fun w -> Mono.percentile w.lat_us 50.) valid_ws);
    p99 = (if valid_ws = [] then nan else med (fun w -> Mono.percentile w.lat_us 99.) valid_ws);
    lag_p99 = med lag99 windows;
    valid = valid_ws <> [];
    backlog_ok = backlogs <= (rate /. 1000. *. (limit_us /. 1000.)) +. 32.;
    requests = List.fold_left (fun a w -> a + Array.length w.lat_us) 0 windows;
  }

let run_phase c input ~rate ~seconds =
  let t_end = Mono.now () + int_of_float (seconds *. 1e9) in
  let ws = ref [] in
  while !ws = [] || Mono.now () < t_end do
    ws := run_window c input ~rate :: !ws
  done;
  phase_summary ~rate (List.rev !ws)

let account r name ph =
  let errors = List.fold_left (fun a w -> a + w.errors) 0 ph.windows in
  Outcome.ops r ~attempted:ph.requests ~failed:errors;
  Outcome.check r
    (Printf.sprintf "daemon_online.%s.schedules_equal_local (%d windows)" name
       (List.length ph.windows))
    (List.for_all (fun w -> w.equal) ph.windows)

(* ------------------------------------------------------------------ setup *)

type daemon = {
  stop : bool Atomic.t;
  domain : unit Domain.t;
  conn : conn;
}

let start_daemon () =
  let listener =
    match Server.listen_tcp ~host:"127.0.0.1" ~port:0 with
    | Ok l -> l
    | Error e -> failwith e
  in
  let port = Option.get (Server.port listener) in
  let stop = Atomic.make false in
  let config = { (Server.default_config ()) with Server.sessions = 1 } in
  let domain = Domain.spawn (fun () -> Server.serve ~stop config listener) in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  { stop; domain; conn = { fd; buf = Bytes.create (1 lsl 20); lo = 0; hi = 0 } }

let stop_daemon d =
  (try Unix.close d.conn.fd with Unix.Unix_error _ -> ());
  Atomic.set d.stop true;
  Domain.join d.domain

(* Input generation, daemon start, connect and one warm-up window at full
   speed, repeated; the last daemon stays up. *)
let setup ~seed ~reps =
  let samples = Array.make reps 0. in
  let last = ref None in
  for k = 0 to reps - 1 do
    Option.iter (fun (d, _) -> stop_daemon d) !last;
    let t0 = Mono.now () in
    let input = make_input seed in
    let d = start_daemon () in
    ignore (run_window d.conn input ~rate:1e7);
    samples.(k) <- Mono.seconds_since t0;
    last := Some (d, input)
  done;
  let d, input = Option.get !last in
  (d, input, samples)

(* The ladder stops at the first failing rate; the maximum sustainable
   rate is interpolated between the last passing rate and that one. *)
let run_ladder r c input ~seconds =
  let rung = seconds /. float_of_int (List.length ladder) in
  let rec go prev = function
    | [] -> (prev, [])
    | rate :: rest ->
      let ph = run_phase c input ~rate ~seconds:rung in
      account r (Printf.sprintf "ladder_%.0f" rate) ph;
      let pass = ph.valid && ph.backlog_ok && ph.p99 <= limit_us in
      if pass then
        let best, phs = go (Some ph) rest in
        (best, ph :: phs)
      else (prev, [ ph ])
  in
  let best, phases = go None ladder in
  let failed = List.find_opt (fun ph -> not (ph.valid && ph.backlog_ok && ph.p99 <= limit_us)) phases in
  let max_rate =
    match (best, failed) with
    | Some b, Some f when f.valid && f.p99 > limit_us && f.p99 > b.p99 ->
      b.rate +. ((f.rate -. b.rate) *. (limit_us -. b.p99) /. (f.p99 -. b.p99))
    | Some b, _ -> b.rate
    | None, _ -> 0. (* no tested rate meets the limit *)
  in
  (max_rate, phases)

let describe ph =
  Printf.sprintf "%6.0f req/s: p50 %8.1f us  p99 %8.1f us  lag p99 %7.1f us  %s%s  (%d windows)"
    ph.rate ph.p50 ph.p99 ph.lag_p99
    (if ph.valid then "valid" else "INVALID: generator behind")
    (if ph.backlog_ok then "" else ", backlog grows")
    (List.length ph.windows)

(* Closed-loop rounds: a client that writes the 32 submits of a round and
   its [advance] (and [status], when due) at once, then waits for every
   response before the next round.  A round's latency runs from its write
   to the read of its last response: the time to have 32 tasks admitted
   and the schedule advanced over them. *)
let rounds c input () =
  let m = Array.length input.ends in
  let lats = ref [] and errors = ref 0 in
  let recv = ref 0 in
  let first = ref 0 in
  while !first < m do
    let rec last i =
      if i >= m - 1 then m - 1
      else
        match (input.kinds.(i), input.kinds.(i + 1)) with
        | K_advance, K_status -> last (i + 1)
        | (K_advance | K_status), _ -> i
        | K_submit, _ -> last (i + 1)
    in
    let l = last !first in
    let off = if !first = 0 then 0 else input.ends.(!first - 1) in
    let t0 = Mono.now () in
    write_all c (Bytes.sub_string input.lines off (input.ends.(l) - off));
    let t_end = t0 + 10_000_000_000 in
    while !recv <= l do
      if Mono.now () > t_end then failwith "daemon response timed out";
      if fill c > 0 then begin
        let rec consume () =
          let o, len = next_line c in
          if o >= 0 then begin
            if not (is_ok c o len) then incr errors;
            incr recv;
            consume ()
          end
        in
        consume ()
      end
    done;
    lats := float_of_int (Mono.now () - t0) *. 1e-3 :: !lats;
    first := l + 1
  done;
  (Array.of_list !lats, !errors)

let run_rounds r c input ~seconds =
  let t_end = Mono.now () + int_of_float (seconds *. 1e9) in
  let all = ref [] and windows = ref 0 and equal = ref true in
  while !windows = 0 || Mono.now () < t_end do
    let (lats, errors), bad, eq = in_run c input (rounds c input) in
    Outcome.ops r ~attempted:(Array.length input.ends) ~failed:(errors + bad);
    all := lats :: !all;
    incr windows;
    equal := !equal && eq
  done;
  Outcome.check r
    (Printf.sprintf "daemon_online.rounds.schedules_equal_local (%d windows)" !windows)
    !equal;
  Array.concat !all

let untraced r ~seed ~seconds =
  let d, input, setup_samples = setup ~seed ~reps:5 in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  Outcome.metric r ~n:5 "setup_s" "s" (Mono.median setup_samples);
  let c = d.conn in
  let light = run_phase c input ~rate:light_rate ~seconds:(0.25 *. seconds) in
  account r "light" light;
  let heavy = run_phase c input ~rate:heavy_rate ~seconds:(0.15 *. seconds) in
  account r "heavy" heavy;
  let max_rate, rungs = run_ladder r c input ~seconds:(0.2 *. seconds) in
  let rounds = run_rounds r c input ~seconds:(0.4 *. seconds) in
  Outcome.check r "daemon_online.light_generator_kept_up" light.valid;
  let n_rounds = Array.length rounds in
  let q x = Mono.percentile rounds x in
  let per_round =
    float_of_int (Array.length input.ends)
    /. float_of_int (Array.fold_left (fun a k -> if k = K_advance then a + 1 else a) 0 input.kinds)
  in
  Outcome.metric r ~n:n_rounds "throughput_per_s" "1/s" (per_round /. (q 50. *. 1e-6));
  Outcome.metric r "peak_heap_mb" "MB" (Mono.peak_heap_mb ());
  Outcome.metric r ~n:n_rounds "lat_p50_us" "us" (q 50.);
  Outcome.metric r ~n:n_rounds "lat_tail_us" "us" (q 90.);
  Outcome.extra r ~n:n_rounds "rounds.lat_p99_us" "us" (q 99.);
  Outcome.extra r ~n:light.requests "light.lat_p50_us" "us" light.p50;
  Outcome.extra r ~n:light.requests "light.lat_p99_us" "us" light.p99;
  Outcome.extra r ~n:heavy.requests "heavy.lat_p50_us" "us" heavy.p50;
  Outcome.extra r ~n:heavy.requests "heavy.lat_p99_us" "us" heavy.p99;
  Outcome.extra r ~n:(List.length rungs) "max_rate_rps" "1/s" max_rate;
  Outcome.extra r ~n:heavy.requests "daemon.gen_lag_us_p99" "us" heavy.lag_p99;
  Outcome.note r "window: %d tasks, %d timed requests; P = %d" (Dag.n input.dag)
    (Array.length input.ends) p;
  Outcome.note r "light  %s" (describe light);
  Outcome.note r "heavy  %s" (describe heavy);
  List.iter (fun ph -> Outcome.note r "ladder %s" (describe ph)) rungs;
  Outcome.note r "rounds: %d closed-loop rounds of about %.0f requests" n_rounds per_round

(* ------------------------------------------------------------- traced *)

let num i = Json.Num (float_of_int i)

type replay = {
  mutable lines : int;
  mutable bytes : int;
  mutable json_dec : int;
  mutable proto_dec : int;
  mutable proto_enc : int;
  mutable json_enc : int;
  mutable submits : int;
  mutable admit : int;
  mutable stepper : int;  (** Admissions, advances and the final drain. *)
  mutable advances : float list;  (** Per advance call, in us. *)
}

let new_replay () =
  { lines = 0; bytes = 0; json_dec = 0; proto_dec = 0; proto_enc = 0; json_enc = 0;
    submits = 0; admit = 0; stepper = 0; advances = [] }

(* Replays one window's request lines in-process through the steps the
   daemon's session takes for each line: JSON decode, protocol decode, the
   stepper call, the response object and its JSON encoding. *)
let replay_window acc ?(lean = false) ?(wrap = Fun.id) input =
  let pol = wrap (Layers.algorithm1 ~p ()) in
  let st = Sim_core.Stepper.create ~lean ~p pol in
  Array.iter
    (fun s ->
      let t0 = Mono.now () in
      let j = match Json.of_string s with Ok j -> j | Error e -> failwith e in
      let t1 = Mono.now () in
      let req = match Protocol.request_of_json j with Ok q -> q | Error e -> failwith e in
      let t2 = Mono.now () in
      let fields =
        match req with
        | Protocol.Submit sp ->
          let id = Sim_core.Stepper.admitted st in
          let task = Task.make ~label:sp.Protocol.s_label ~id sp.Protocol.s_speedup in
          ignore
            (Sim_core.Stepper.admit_task st ~release_time:sp.Protocol.s_release
               ~deps:sp.Protocol.s_deps task);
          acc.submits <- acc.submits + 1;
          [ ("id", num id) ]
        | Protocol.Advance until ->
          let b = Sim_core.Stepper.advance st ~until in
          [
            ("batches", num b);
            ("now", Json.Num (Sim_core.Stepper.now st));
            ("completed", num (Sim_core.Stepper.completed st));
            ("running", num (Sim_core.Stepper.running st));
            ("ready", num (Sim_core.Stepper.ready st));
          ]
        | _ ->
          [
            ("phase", Json.Str "running");
            ("now", Json.Num (Sim_core.Stepper.now st));
            ("admitted", num (Sim_core.Stepper.admitted st));
            ("completed", num (Sim_core.Stepper.completed st));
            ("ready", num (Sim_core.Stepper.ready st));
            ("running", num (Sim_core.Stepper.running st));
            ("free", num (Sim_core.Stepper.free_procs st));
          ]
      in
      let t3 = Mono.now () in
      let resp = Protocol.ok fields in
      let t4 = Mono.now () in
      ignore (Sys.opaque_identity (Json.to_string_compact resp));
      let t5 = Mono.now () in
      acc.lines <- acc.lines + 1;
      acc.bytes <- acc.bytes + String.length s + 1;
      acc.json_dec <- acc.json_dec + (t1 - t0);
      acc.proto_dec <- acc.proto_dec + (t2 - t1);
      acc.stepper <- acc.stepper + (t3 - t2);
      acc.proto_enc <- acc.proto_enc + (t4 - t3);
      acc.json_enc <- acc.json_enc + (t5 - t4);
      match req with
      | Protocol.Submit _ -> acc.admit <- acc.admit + (t3 - t2)
      | Protocol.Advance _ ->
        acc.advances <- (float_of_int (t3 - t2) *. 1e-3) :: acc.advances
      | _ -> ())
    input.strings;
  let t0 = Mono.now () in
  ignore (Sys.opaque_identity (Sim_core.Stepper.drain st));
  acc.stepper <- acc.stepper + (Mono.now () - t0)

let ping_line = line Protocol.Ping

(* Closed-loop round trips of [ping] over the live connection. *)
let ping_rtts c n =
  Array.init n (fun _ ->
      let t0 = Mono.now () in
      let resp = rpc c ping_line in
      let t1 = Mono.now () in
      if not (String.length resp >= String.length ok_prefix) then failwith resp;
      float_of_int (t1 - t0) *. 1e-3)

(* The in-process cost of serving one ping, in us. *)
let ping_inproc () =
  let reps = 20_000 in
  let t0 = Mono.now () in
  for _ = 1 to reps do
    match Json.of_string ping_line with
    | Ok j -> (
      match Protocol.request_of_json j with
      | Ok _ -> ignore (Sys.opaque_identity (Json.to_string_compact (Protocol.ok [])))
      | Error e -> failwith e)
    | Error e -> failwith e
  done;
  float_of_int (Mono.now () - t0) *. 1e-3 /. float_of_int reps

let traced r ~seed ~seconds =
  let d, input, _ = setup ~seed ~reps:1 in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let c = d.conn in
  let phase name ~rate ~spans =
    Mono.Span.on := spans;
    let ph = run_phase c input ~rate ~seconds:(0.15 *. seconds) in
    let g =
      List.fold_left (fun a w -> Mono.gc_add a w.gc) Mono.zero_gc ph.windows
    in
    Mono.Span.on := true;
    account r name ph;
    (ph, g)
  in
  let light_off, _ = phase "light_untraced" ~rate:light_rate ~spans:false in
  let light_on, g_light = phase "light" ~rate:light_rate ~spans:true in
  let heavy, g_heavy = phase "heavy" ~rate:heavy_rate ~spans:true in
  let rtts = ping_rtts c 2000 in
  Outcome.ops r ~attempted:(Array.length rtts) ~failed:0;
  let inproc_ping = ping_inproc () in
  (* Replays: plain and lean (recording cost), then wrapped (callbacks). *)
  let full = new_replay () and lean = new_replay () in
  let words_full = ref 0. and words_lean = ref 0. in
  for _ = 1 to 10 do
    let g0 = Mono.gc () in
    replay_window full input;
    let g1 = Mono.gc () in
    replay_window lean ~lean:true input;
    let g2 = Mono.gc () in
    words_full := !words_full +. (Mono.gc_diff g0 g1).Mono.minor;
    words_lean := !words_lean +. (Mono.gc_diff g1 g2).Mono.minor
  done;
  let pr = Layers.probe () in
  let wrapped = new_replay () in
  for _ = 1 to 3 do
    replay_window wrapped ~wrap:(Layers.wrap pr) input
  done;
  let logged = Layers.probe ~log:true () in
  let res =
    Sim_core.run ~release_times:input.release ~p
      (Layers.wrap logged (Layers.algorithm1 ~p ()))
      input.dag
  in
  let pm = Layers.new_replay () and ev = Layers.new_event_replay () in
  Layers.replay_prefix_min pm ~p ~schedule:res.Sim_core.schedule
    (Option.get logged.Layers.log);
  Layers.replay_events ev ~p ~schedule:res.Sim_core.schedule;
  Outcome.check r "daemon_online.replay_feasible" (ev.Layers.replay_errors = 0);
  let an = Layers.new_analysis () in
  Layers.measure_analysis an ~p (Dag.tasks input.dag);
  let per_line f = float_of_int f /. float_of_int full.lines in
  let tasks = float_of_int full.submits in
  let adv = Array.of_list full.advances in
  let rtt50 = Mono.median rtts in
  let inproc_request =
    per_line (full.json_dec + full.proto_dec + full.stepper + full.proto_enc + full.json_enc)
    *. 1e-3
  in
  let requests = float_of_int (light_on.requests + heavy.requests) in
  let windows = float_of_int (List.length light_on.windows + List.length heavy.windows) in
  let g_sum f = f g_light +. f g_heavy in
  Outcome.emit_layers r
    [
      ("core.on_ready.ns_per_call", (Layers.per pr.Layers.ready_ns pr.Layers.ready_calls, pr.Layers.ready_calls));
      ("core.next_launch.ns_per_call", (Layers.per pr.Layers.launch_ns pr.Layers.launch_calls, pr.Layers.launch_calls));
      ("core.next_launch.calls_per_task", (float_of_int pr.Layers.launch_calls /. float_of_int wrapped.submits, 3));
      ("core.next_launch.launch_ratio", (Layers.per pr.Layers.launches pr.Layers.launch_calls, pr.Layers.launch_calls));
      ("util.prefix_min.push_ns", (Layers.per pm.Layers.push_ns pm.Layers.pushes, pm.Layers.pushes));
      ("util.prefix_min.pop_ns", (Layers.per pm.Layers.pop_ns pm.Layers.pops, pm.Layers.pops));
      ("util.float_heap.ns_per_op", (Layers.per ev.Layers.heap_ns ev.Layers.heap_ops, ev.Layers.heap_ops));
      ("util.float_heap.ops_per_task", (2. *. float_of_int res.Sim_core.metrics.Metrics.counters.Metrics.events /. float_of_int (Dag.n input.dag), 1));
      ("sim.platform.acquire_release_ns", (Layers.per ev.Layers.platform_ns ev.Layers.platform_pairs, ev.Layers.platform_pairs));
      ("sim.record.ns_per_task", (float_of_int (full.stepper - lean.stepper) /. tasks, 10));
      ("sim.record.words_per_task", ((!words_full -. !words_lean) /. tasks, 10));
      ("sim.loop.self_ns_per_task", ((float_of_int full.stepper -. (float_of_int (pr.Layers.ready_ns + pr.Layers.launch_ns) *. 10. /. 3.)) /. tasks, 10));
      ("model.analyze.ns_per_op", (Layers.per an.Layers.analyze_ns an.Layers.analyzed, an.Layers.analyzed));
      ("core.step1.ns_per_op", (Layers.per an.Layers.step1_ns an.Layers.step1_calls, an.Layers.step1_calls));
      ("core.step1.probes_per_op", (Layers.per an.Layers.probes an.Layers.step1_calls, an.Layers.step1_calls));
      ("obs.json.decode_ns_per_line", (per_line full.json_dec, full.lines));
      ("obs.json.encode_ns_per_line", (per_line full.json_enc, full.lines));
      ("obs.json.bytes_per_request", (per_line full.bytes, full.lines));
      ("service.protocol.decode_ns", (per_line full.proto_dec, full.lines));
      ("service.protocol.encode_ns", (per_line full.proto_enc, full.lines));
      ("sim.stepper.admit_ns", (Layers.per full.admit full.submits, full.submits));
      ("sim.stepper.advance_us_p50", (Mono.percentile adv 50., Array.length adv));
      ("sim.stepper.advance_us_p99", (Mono.percentile adv 99., Array.length adv));
      ("service.ping.rtt_us_p50", (rtt50, Array.length rtts));
      ("service.server.unattributed_us", (rtt50 -. inproc_ping, Array.length rtts));
      ("gc.minor_words_per_op", (g_sum (fun g -> g.Mono.minor) /. requests, int_of_float requests));
      ("gc.major_words_per_op", (g_sum (fun g -> g.Mono.major) /. requests, int_of_float requests));
      ("gc.minor_collections", (g_sum (fun g -> float_of_int g.Mono.minor_gcs) /. windows, int_of_float windows));
      ("gc.major_collections", (g_sum (fun g -> float_of_int g.Mono.major_gcs) /. windows, int_of_float windows));
      ("daemon.gen_lag_us_p99", (heavy.lag_p99, heavy.requests));
      ("ledger.unattributed_pct", (100. *. (light_on.p50 -. inproc_request) /. light_on.p50, light_on.requests));
      ("trace.overhead_pct", (100. *. (light_on.p50 -. light_off.p50) /. light_off.p50, light_on.requests));
    ];
  Outcome.extra r ~n:light_on.requests "light.lat_p50_us" "us" light_on.p50;
  Outcome.extra r ~n:light_on.requests "light.lat_p99_us" "us" light_on.p99;
  Outcome.extra r ~n:heavy.requests "heavy.lat_p50_us" "us" heavy.p50;
  Outcome.extra r ~n:heavy.requests "heavy.lat_p99_us" "us" heavy.p99;
  Outcome.extra r ~n:full.lines "inproc_us_per_request" "us" inproc_request;
  Outcome.extra r ~n:1 "inproc_us_per_ping" "us" inproc_ping;
  Outcome.note r "gc.* count the timed parts of the windows only: *_per_op per request, *_collections per window of %d requests"
    (Array.length input.ends);
  Outcome.note r "light  %s" (describe light_on);
  Outcome.note r "heavy  %s" (describe heavy)
