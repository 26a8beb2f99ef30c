(* The service layer and the incremental stepper it is built on.

   The centrepiece is the late-admission differential property: a stepper
   fed the same tasks as a batch run, but admitted at *random admissible
   instants* (any point up to the scheduling instant that completes a
   task's last outstanding dependency), must produce a bit-identical
   result — schedule, trace, attempts, metrics, counters — across all five
   priority rules, both allocators, the failure models and release times.
   An exact-rational Shadow pass then replays 500 stepper-produced runs
   comparison-by-comparison.  The wire protocol gets round-trip and
   end-to-end (Unix-socket daemon) coverage. *)

open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_util
open Moldable_core
open Moldable_workloads
module Shadow = Moldable_exact.Shadow
module Json = Moldable_obs.Json
module Protocol = Moldable_service.Protocol
module Server = Moldable_service.Server
module Client = Moldable_service.Client

(* ------------------------------------------------------- shared helpers *)

let random_dag rng =
  let kind =
    Rng.choose rng
      [| Speedup.Kind_roofline; Speedup.Kind_communication;
         Speedup.Kind_amdahl; Speedup.Kind_general |]
  in
  Random_dag.layered ~rng ~n_layers:4 ~width:5 ~edge_prob:0.3 ~kind ()

let same_schedule a b =
  Schedule.n a = Schedule.n b
  && List.for_all
       (fun i ->
         let pa = Schedule.placement a i and pb = Schedule.placement b i in
         Float.equal pa.Schedule.start pb.Schedule.start
         && Float.equal pa.Schedule.finish pb.Schedule.finish
         && pa.Schedule.nprocs = pb.Schedule.nprocs
         && pa.Schedule.procs = pb.Schedule.procs)
       (List.init (Schedule.n a) (fun i -> i))

let same_result (a : Sim_core.result) (b : Sim_core.result) =
  same_schedule a.Sim_core.schedule b.Sim_core.schedule
  && a.Sim_core.trace = b.Sim_core.trace
  && a.Sim_core.attempts = b.Sim_core.attempts
  && Float.equal a.Sim_core.makespan b.Sim_core.makespan
  && a.Sim_core.n_attempts = b.Sim_core.n_attempts
  && a.Sim_core.n_failures = b.Sim_core.n_failures
  && a.Sim_core.metrics = b.Sim_core.metrics

(* --------------------------------------- late-admission stepper driver *)

(* Batch instants of a reference run, as the distinct event times of its
   chronological trace.  Admission step s means "after the first s batch
   instants were processed": step 0 is before the virtual clock starts. *)
let admission_caps ~dag (reference : Sim_core.result) =
  let n = Dag.n dag in
  let distinct_times =
    List.rev
      (List.fold_left
         (fun acc (t, _) ->
           match acc with
           | t' :: _ when Float.equal t' t -> acc
           | _ -> t :: acc)
         [] reference.Sim_core.trace)
  in
  (* The time-0 source flush is step 0 whether or not it recorded events. *)
  let offset =
    match distinct_times with 0. :: _ -> 0 | _ -> 1
  in
  let step_of_time t =
    let rec find i = function
      | [] -> invalid_arg "admission_caps: time not in trace"
      | t' :: rest -> if Float.equal t' t then i else find (i + 1) rest
    in
    find offset distinct_times
  in
  let finish_step = Array.make n 0 in
  List.iter
    (fun (t, ev) ->
      match ev with
      | Sim_core.Finish i -> finish_step.(i) <- step_of_time t
      | Sim_core.Ready _ | Sim_core.Start _ | Sim_core.Failed _ -> ())
    reference.Sim_core.trace;
  (* A task must be admitted strictly before the batch that completes its
     last dependency (so the normal unlock path reveals it); sources must
     be in place before the time-0 flush. *)
  let unlock_step j =
    List.fold_left (fun acc d -> max acc finish_step.(d)) 0
      (Dag.predecessors dag j)
  in
  let cap = Array.make n 0 in
  for j = n - 1 downto 0 do
    cap.(j) <- unlock_step j;
    if j < n - 1 then cap.(j) <- min cap.(j) cap.(j + 1)
  done;
  cap

(* Drive a stepper with tasks admitted in id order at the given steps and
   return the drained result. *)
let run_stepper ~admit_step ?release_times ?seed ?max_attempts ?failures ~p
    policy dag =
  let n = Dag.n dag in
  let st = Sim_core.Stepper.create ?seed ?max_attempts ?failures ~p policy in
  let next = ref 0 in
  let admit_bucket s =
    while !next < n && admit_step.(!next) = s do
      let i = !next in
      ignore
        (Sim_core.Stepper.admit_task st
           ?release_time:
             (match release_times with None -> None | Some r -> Some r.(i))
           ~deps:(Dag.predecessors dag i) (Dag.task dag i)
          : int);
      incr next
    done
  in
  admit_bucket 0;
  (* Trigger the time-0 source flush without touching any queued batch
     (all queued stamps are strictly positive: durations and deferred
     releases are > 0). *)
  ignore (Sim_core.Stepper.advance st ~until:0. : int);
  let step = ref 1 in
  let rec pump () =
    match Sim_core.Stepper.next_event_time st with
    | None -> ()
    | Some t ->
      admit_bucket !step;
      ignore (Sim_core.Stepper.advance st ~until:t : int);
      incr step;
      pump ()
  in
  pump ();
  Alcotest.(check int) "every task admitted" n !next;
  Sim_core.Stepper.drain st

let gen_scenario rng =
  let dag = random_dag rng in
  let p = Rng.int_range rng 2 32 in
  let release_times =
    if Rng.bool rng then
      Some (Array.init (Dag.n dag) (fun _ -> Rng.float rng 5.))
    else None
  in
  let failures =
    match Rng.int_range rng 0 2 with
    | 0 -> Sim_core.never
    | 1 -> Sim_core.bernoulli ~q:(Rng.float rng 0.6)
    | _ -> Sim_core.at_most ~k:(Rng.int_range rng 0 3)
  in
  (dag, p, release_times, failures)

let random_admit_steps rng ~cap =
  let n = Array.length cap in
  let admit_step = Array.make n 0 in
  for j = 0 to n - 1 do
    let lo = if j = 0 then 0 else admit_step.(j - 1) in
    admit_step.(j) <- Rng.int_range rng lo (max lo cap.(j))
  done;
  admit_step

let allocators = [ Allocator.algorithm2_per_model; Improved_alloc.per_model ]

let prop_stepper_late_admission_bit_identical =
  QCheck.Test.make
    ~name:"stepper with random admissible late admissions = batch run (5 \
           rules x 2 allocators, failure models, release times)"
    ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dag, p, release_times, failures = gen_scenario rng in
      List.for_all
        (fun priority ->
          List.for_all
            (fun allocator ->
              let policy () =
                Online_scheduler.policy ~priority ~allocator ~p ()
              in
              let reference =
                Sim_core.run ?release_times ~seed ~failures ~max_attempts:64
                  ~p (policy ()) dag
              in
              let cap = admission_caps ~dag reference in
              let admit_step = random_admit_steps rng ~cap in
              let stepped =
                run_stepper ~admit_step ?release_times ~seed ~failures
                  ~max_attempts:64 ~p (policy ()) dag
              in
              same_result stepped reference)
            allocators)
        Priority.all)

(* Latest admissible step everywhere — the most adversarial timing. *)
let prop_stepper_last_moment_admission =
  QCheck.Test.make
    ~name:"stepper with every task admitted at the last admissible step = \
           batch run"
    ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dag, p, release_times, failures = gen_scenario rng in
      let policy () = Online_scheduler.policy ~p ~allocator:Allocator.algorithm2_per_model () in
      let reference =
        Sim_core.run ?release_times ~seed ~failures ~max_attempts:64 ~p
          (policy ()) dag
      in
      let cap = admission_caps ~dag reference in
      (* cap is already non-decreasing (suffix minimum), so it is itself a
         valid id-ordered admission schedule. *)
      let stepped =
        run_stepper ~admit_step:cap ?release_times ~seed ~failures
          ~max_attempts:64 ~p (policy ()) dag
      in
      same_result stepped reference)

(* ------------------------------------------ exact shadow over the stepper *)

let improved_params_of (t : Task.t) =
  let pr = Improved_alloc.params (Speedup.kind t.Task.speedup) in
  (pr.Improved_alloc.mu, pr.Improved_alloc.rho)

let test_stepper_shadow_500_cells () =
  let n_unexplained = ref 0 and checks = ref 0 in
  for seed = 0 to 499 do
    let rng = Rng.create (0x5E2 + seed) in
    let kind =
      match Rng.int rng 5 with
      | 0 -> Speedup.Kind_roofline
      | 1 -> Speedup.Kind_communication
      | 2 -> Speedup.Kind_amdahl
      | 3 -> Speedup.Kind_general
      | _ -> Speedup.Kind_power
    in
    let dag =
      match Rng.int rng 3 with
      | 0 ->
        Random_dag.layered ~rng
          ~n_layers:(Rng.int_range rng 2 5)
          ~width:(Rng.int_range rng 1 6)
          ~edge_prob:(Rng.float_range rng 0.05 0.6)
          ~kind ()
      | 1 -> Random_dag.independent ~rng ~n:(Rng.int_range rng 1 20) ~kind ()
      | _ ->
        Random_dag.erdos_renyi ~rng
          ~n:(Rng.int_range rng 2 18)
          ~edge_prob:(Rng.float_range rng 0.05 0.4)
          ~kind ()
    in
    let p = Rng.int_range rng 2 96 in
    let release_times =
      if seed mod 7 = 0 then
        Some (Array.init (Dag.n dag) (fun _ -> Rng.float_range rng 0. 5.))
      else None
    in
    let failures =
      if seed mod 5 = 0 then Sim_core.bernoulli ~q:0.15 else Sim_core.never
    in
    let policy () =
      Online_scheduler.policy ~allocator:Improved_alloc.per_model ~p ()
    in
    let reference =
      Sim_core.run ?release_times ~seed ~failures ~max_attempts:64 ~p
        (policy ()) dag
    in
    let cap = admission_caps ~dag reference in
    let admit_step = random_admit_steps rng ~cap in
    let result =
      run_stepper ~admit_step ?release_times ~seed ~failures ~max_attempts:64
        ~p (policy ()) dag
    in
    let report = Shadow.check ~improved:improved_params_of ~dag ~p result in
    checks := !checks + report.Shadow.checks;
    if not (Shadow.ok report) then begin
      n_unexplained := !n_unexplained + report.Shadow.n_unexplained;
      Format.eprintf "seed %d:@ %a@." seed Shadow.pp report
    end
  done;
  Alcotest.(check bool) "performed exact checks" true (!checks > 0);
  Alcotest.(check int) "zero unexplained divergences" 0 !n_unexplained

(* ------------------------------------------------------- stepper basics *)

let small_task ?(w = 4.) id = Task.make ~id (Speedup.Amdahl { w; d = 0.5 })

let fifo_policy ~p () =
  Online_scheduler.policy ~allocator:Allocator.algorithm2_per_model ~p ()

let test_stepper_growth_from_zero_capacity () =
  (* capacity 0 forces the arena to grow through admissions. *)
  let p = 8 in
  let st = Sim_core.Stepper.create ~capacity:0 ~p (fifo_policy ~p ()) in
  for i = 0 to 99 do
    let deps = if i = 0 then [] else [ i - 1 ] in
    ignore (Sim_core.Stepper.admit_task st ~deps (small_task i) : int)
  done;
  let r = Sim_core.Stepper.drain st in
  Alcotest.(check int) "all placed" 100 (Schedule.n r.Sim_core.schedule);
  let chain =
    Dag.create
      ~tasks:(List.init 100 small_task)
      ~edges:(List.init 99 (fun i -> (i, i + 1)))
  in
  let batch = Online_scheduler.run ~p chain in
  Alcotest.(check bool) "chain matches batch run" true
    (same_schedule r.Sim_core.schedule batch.Sim_core.schedule)

let test_stepper_admit_after_drain_raises () =
  let p = 4 in
  let st = Sim_core.Stepper.create ~p (fifo_policy ~p ()) in
  ignore (Sim_core.Stepper.admit_task st (small_task 0) : int);
  ignore (Sim_core.Stepper.drain st : Sim_core.result);
  Alcotest.(check bool) "closed" true (Sim_core.Stepper.closed st);
  (match Sim_core.Stepper.admit_task st (small_task 1) with
  | _ -> Alcotest.fail "admit on a closed stepper must raise"
  | exception Invalid_argument _ -> ());
  match Sim_core.Stepper.advance st ~until:1. with
  | _ -> Alcotest.fail "advance on a closed stepper must raise"
  | exception Invalid_argument _ -> ()

let test_stepper_rejects_bad_deps () =
  let p = 4 in
  let st = Sim_core.Stepper.create ~p (fifo_policy ~p ()) in
  ignore (Sim_core.Stepper.admit_task st (small_task 0) : int);
  (match Sim_core.Stepper.admit_task st ~deps:[ 1 ] (small_task 1) with
  | _ -> Alcotest.fail "self-dependency must raise"
  | exception Invalid_argument _ -> ());
  (match Sim_core.Stepper.admit_task st ~deps:[ 0; 0 ] (small_task 1) with
  | _ -> Alcotest.fail "non-increasing deps must raise"
  | exception Invalid_argument _ -> ());
  (match Sim_core.Stepper.admit_task st (small_task 7) with
  | _ -> Alcotest.fail "mismatched id must raise"
  | exception Invalid_argument _ -> ());
  (* The rejections left the stepper untouched: the run still drains. *)
  ignore (Sim_core.Stepper.admit_task st ~deps:[ 0 ] (small_task 1) : int);
  let r = Sim_core.Stepper.drain st in
  Alcotest.(check int) "both tasks ran" 2 (Schedule.n r.Sim_core.schedule)

let test_stepper_unadmitted_forward_dep_stalls () =
  let p = 4 in
  let st = Sim_core.Stepper.create ~p (fifo_policy ~p ()) in
  ignore (Sim_core.Stepper.admit_task st ~deps:[ 1 ] (small_task 0) : int);
  (match Sim_core.Stepper.drain st with
  | _ -> Alcotest.fail "draining with an unadmitted dependency must stall"
  | exception Sim_core.Policy_error _ -> ());
  Alcotest.(check bool) "closed after failed drain" true
    (Sim_core.Stepper.closed st)

let test_stepper_events_windows_concatenate () =
  let p = 8 in
  let rng = Rng.create 42 in
  let dag = random_dag rng in
  let st = Sim_core.Stepper.create ~p (fifo_policy ~p ()) in
  for i = 0 to Dag.n dag - 1 do
    ignore
      (Sim_core.Stepper.admit_task st ~deps:(Dag.predecessors dag i)
         (Dag.task dag i)
        : int)
  done;
  let windows = ref [] in
  let cursor = ref 0 in
  let snap () =
    let evs = Sim_core.Stepper.events_from st !cursor in
    cursor := Sim_core.Stepper.n_events st;
    windows := evs :: !windows
  in
  ignore (Sim_core.Stepper.advance st ~until:0. : int);
  snap ();
  let rec pump () =
    match Sim_core.Stepper.next_event_time st with
    | None -> ()
    | Some t ->
      ignore (Sim_core.Stepper.advance st ~until:t : int);
      snap ();
      pump ()
  in
  pump ();
  let r = Sim_core.Stepper.drain st in
  let streamed = List.concat (List.rev !windows) in
  Alcotest.(check bool) "windows concatenate to the full trace" true
    (streamed = r.Sim_core.trace)

(* ------------------------------------------------------------- protocol *)

let roundtrip req =
  match Protocol.request_to_json req with
  | Error e -> Alcotest.fail e
  | Ok j -> (
    (* through the printer and the hardened parser, like the wire does *)
    match Json.of_string (Json.to_string_compact j) with
    | Error e -> Alcotest.fail e
    | Ok j' -> (
      match Protocol.request_of_json j' with
      | Error e -> Alcotest.fail e
      | Ok req' -> req'))

let test_protocol_roundtrip () =
  let specs =
    [
      Protocol.Ping;
      Protocol.Open
        {
          Protocol.o_p = 16;
          o_algorithm = `Improved;
          o_priority = "longest-first";
          o_seed = 7;
          o_max_attempts = Some 4;
          o_failures = `Bernoulli 0.25;
        };
      Protocol.Submit
        {
          Protocol.s_label = "stage3";
          s_speedup = Speedup.General { w = 5.; ptilde = 8; d = 0.25; c = 0.01 };
          s_deps = [ 0; 2; 5 ];
          s_release = 1.5;
        };
      Protocol.Advance 12.5;
      Protocol.Advance infinity;
      Protocol.Status;
      Protocol.Events 17;
      Protocol.Subscribe true;
      Protocol.Drain;
      Protocol.Schedule;
      Protocol.Makespan;
      Protocol.Metrics;
      Protocol.Close;
    ]
  in
  List.iter
    (fun req ->
      Alcotest.(check bool) "request round-trips" true (roundtrip req = req))
    specs

let test_protocol_rejects () =
  let reject s =
    match Json.of_string s with
    | Error _ -> ()
    | Ok j -> (
      match Protocol.request_of_json j with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %s" s)
      | Error _ -> ())
  in
  reject {|{"op":"nope"}|};
  reject {|{"no_op":1}|};
  reject {|[1,2]|};
  reject {|{"op":"open"}|};
  reject {|{"op":"open","p":0}|};
  reject {|{"op":"open","p":4,"algorithm":"quantum"}|};
  reject {|{"op":"open","p":4,"failures":{"model":"bernoulli","q":1.5}}|};
  reject {|{"op":"submit","model":"roofline","w":-1,"ptilde":4}|};
  reject {|{"op":"submit","model":"warp","w":1}|};
  reject {|{"op":"submit","model":"amdahl","w":1,"d":0.5,"release":-2}|};
  reject {|{"op":"events","since":-1}|}

let test_protocol_speedups_roundtrip () =
  List.iter
    (fun sp ->
      match Protocol.speedup_to_json sp with
      | Error e -> Alcotest.fail e
      | Ok j -> (
        match Protocol.speedup_of_json j with
        | Ok sp' ->
          Alcotest.(check bool) (Speedup.to_string sp) true (sp = sp')
        | Error e -> Alcotest.fail e))
    [
      Speedup.Roofline { w = 3.; ptilde = 7 };
      Speedup.Communication { w = 2.; c = 0.125 };
      Speedup.Amdahl { w = 8.; d = 0.5 };
      Speedup.General { w = 5.; ptilde = 3; d = 0.25; c = 0.0625 };
      Speedup.Power { w = 4.; alpha = 0.75 };
    ];
  match
    Protocol.speedup_to_json
      (Speedup.Arbitrary { name = "x"; time = (fun _ -> 1.) })
  with
  | Ok _ -> Alcotest.fail "arbitrary speedup must not serialize"
  | Error _ -> ()

let test_protocol_error_codes () =
  List.iter
    (fun code ->
      Alcotest.(check bool) "code name round-trips" true
        (Protocol.error_code_of_name (Protocol.error_code_name code)
        = Some code))
    [
      Protocol.Parse_error; Protocol.Bad_request; Protocol.Limit;
      Protocol.Conflict; Protocol.Draining; Protocol.Internal;
    ]

(* ------------------------------------------------- end-to-end (daemon) *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let with_daemon ?(sessions = 2) f =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "moldable_test_%d.sock" (Unix.getpid ()))
  in
  let registry = Moldable_obs.Registry.create () in
  let config =
    { (Server.default_config ~registry ()) with Server.sessions }
  in
  match Server.listen_unix ~path with
  | Error e -> Alcotest.fail e
  | Ok listener ->
    let stop = Atomic.make false in
    let daemon =
      Domain.spawn (fun () -> Server.serve ~stop config listener)
    in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join daemon)
      (fun () -> f path)

let connect_exn path =
  match Client.connect_unix ~path () with
  | Ok c -> c
  | Error e -> Alcotest.fail e

let test_end_to_end_replay () =
  with_daemon @@ fun path ->
  let rng = Rng.create 9 in
  let dag = random_dag rng in
  let release_times =
    Array.init (Dag.n dag) (fun _ -> Rng.float rng 3.)
  in
  let c = connect_exn path in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.ping c with Ok () -> () | Error e -> Alcotest.fail e);
  List.iter
    (fun (algorithm, priority) ->
      match
        Client.replay ~release_times ~algorithm ~priority ~p:16 c dag
      with
      | Error e -> Alcotest.fail e
      | Ok report ->
        Alcotest.(check bool)
          (Printf.sprintf "identical (%s)" priority)
          true report.Client.identical;
        Alcotest.(check (float 0.))
          "makespans equal" report.Client.local_makespan
          report.Client.server_makespan)
    [ (`Original, "fifo"); (`Improved, "widest-first") ];
  match Client.fetch_metrics c with
  | Error e -> Alcotest.fail e
  | Ok om ->
    Alcotest.(check bool) "exposes service requests" true
      (contains om "moldable_service_requests")

let test_end_to_end_protocol_errors () =
  with_daemon @@ fun path ->
  let c = connect_exn path in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let expect_error code j =
    match Client.request c j with
    | Error e -> Alcotest.fail e
    | Ok resp -> (
      match (Json.member "ok" resp, Json.member "error" resp) with
      | Some (Json.Bool false), Some (Json.Str c') ->
        Alcotest.(check string) "error code" code c'
      | _ -> Alcotest.fail (Json.to_string_compact resp))
  in
  expect_error "bad_request" (Json.Obj [ ("op", Json.Str "warp") ]);
  expect_error "conflict" (Json.Obj [ ("op", Json.Str "drain") ]);
  expect_error "conflict" (Json.Obj [ ("op", Json.Str "schedule") ]);
  expect_error "bad_request"
    (Json.Obj [ ("op", Json.Str "open"); ("p", Json.Num 0.) ]);
  (* The session is still alive and opens fine afterwards. *)
  match
    Client.rpc c
      (Protocol.Open
         {
           Protocol.o_p = 4;
           o_algorithm = `Original;
           o_priority = "fifo";
           o_seed = 0;
           o_max_attempts = None;
           o_failures = `Never;
         })
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_end_to_end_parse_error_recovery () =
  (* Drive the socket by hand: the newline framing recovers after a line
     of garbage, answering parse_error without dropping the session. *)
  with_daemon @@ fun path ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  let send s =
    ignore (Unix.write_substring fd s 0 (String.length s) : int)
  in
  let read_line () =
    let buf = Buffer.create 256 in
    let byte = Bytes.create 1 in
    let rec go () =
      match Unix.read fd byte 0 1 with
      | 0 -> Alcotest.fail "connection closed by server"
      | _ ->
        if Bytes.get byte 0 = '\n' then Buffer.contents buf
        else begin
          Buffer.add_char buf (Bytes.get byte 0);
          go ()
        end
    in
    go ()
  in
  let response () =
    match Json.of_string (read_line ()) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  send "{oops, not json\n";
  let resp = response () in
  (match Json.member "error" resp with
  | Some (Json.Str "parse_error") -> ()
  | _ -> Alcotest.fail (Json.to_string_compact resp));
  send "{\"op\":\"ping\"}\n";
  let resp = response () in
  match Json.member "ok" resp with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail (Json.to_string_compact resp)

let test_end_to_end_incremental_session () =
  (* Drive the protocol by hand: open, submit a chain while advancing,
     subscribe, drain, read the schedule back. *)
  with_daemon @@ fun path ->
  let c = connect_exn path in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let rpc_exn req =
    match Client.rpc c req with
    | Ok resp -> resp
    | Error e -> Alcotest.fail e
  in
  let field name conv resp =
    match Option.bind (Json.member name resp) conv with
    | Some v -> v
    | None -> Alcotest.fail ("missing field " ^ name)
  in
  ignore
    (rpc_exn
       (Protocol.Open
          {
            Protocol.o_p = 4;
            o_algorithm = `Original;
            o_priority = "fifo";
            o_seed = 0;
            o_max_attempts = None;
            o_failures = `Never;
          }));
  ignore (rpc_exn (Protocol.Subscribe true));
  let submit ~deps i =
    let resp =
      rpc_exn
        (Protocol.Submit
           {
             Protocol.s_label = Printf.sprintf "t%d" i;
             s_speedup = Speedup.Amdahl { w = 4.; d = 0.5 };
             s_deps = deps;
             s_release = 0.;
           })
    in
    Alcotest.(check int) "assigned id" i (field "id" Json.to_int resp)
  in
  submit ~deps:[] 0;
  submit ~deps:[ 0 ] 1;
  (* t0 (Amdahl w=4, d=0.5) finishes within (2, 4] on any allocation and
     t1 strictly after 4, so at the 4.0 horizon exactly one is done. *)
  let resp = rpc_exn (Protocol.Advance 4.0) in
  Alcotest.(check int) "task 0 completed" 1
    (field "completed" Json.to_int resp);
  Alcotest.(check bool) "subscription window present" true
    (Json.member "events" resp <> None);
  (* Late admission at the live clock: t2 depends on the still-running t1. *)
  submit ~deps:[ 1 ] 2;
  let status = rpc_exn Protocol.Status in
  Alcotest.(check string) "running phase" "running"
    (field "phase" Json.to_str status);
  let dresp = rpc_exn Protocol.Drain in
  let server_mk = field "makespan" Json.to_float dresp in
  let sched = rpc_exn Protocol.Schedule in
  let placements = field "placements" Json.to_list sched in
  Alcotest.(check int) "three placements" 3 (List.length placements);
  (* The same chain as a local batch run must agree exactly. *)
  let dag =
    Dag.create
      ~tasks:(List.init 3 small_task)
      ~edges:[ (0, 1); (1, 2) ]
  in
  let local = Online_scheduler.run ~p:4 dag in
  Alcotest.(check (float 0.)) "makespan matches local batch run"
    (Schedule.makespan local.Sim_core.schedule)
    server_mk;
  let status = rpc_exn Protocol.Status in
  Alcotest.(check string) "drained phase" "drained"
    (field "phase" Json.to_str status)

let test_end_to_end_concurrent_sessions () =
  with_daemon ~sessions:3 @@ fun path ->
  let rng = Rng.create 21 in
  let dags = Array.init 3 (fun _ -> random_dag rng) in
  let replay_one dag () =
    let c = connect_exn path in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    match Client.replay ~p:8 c dag with
    | Ok report -> report.Client.identical
    | Error e -> Alcotest.fail e
  in
  let domains =
    Array.map (fun dag -> Domain.spawn (replay_one dag)) dags
  in
  Array.iter
    (fun d ->
      Alcotest.(check bool) "concurrent replay identical" true (Domain.join d))
    domains

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "service"
    [
      ( "stepper differential",
        [
          qt prop_stepper_late_admission_bit_identical;
          qt prop_stepper_last_moment_admission;
        ] );
      ( "stepper exact shadow",
        [
          Alcotest.test_case "500 cells, zero unexplained divergences" `Slow
            test_stepper_shadow_500_cells;
        ] );
      ( "stepper basics",
        [
          Alcotest.test_case "growth from capacity 0" `Quick
            test_stepper_growth_from_zero_capacity;
          Alcotest.test_case "admit after drain raises" `Quick
            test_stepper_admit_after_drain_raises;
          Alcotest.test_case "bad deps rejected, stepper untouched" `Quick
            test_stepper_rejects_bad_deps;
          Alcotest.test_case "unadmitted forward dep stalls" `Quick
            test_stepper_unadmitted_forward_dep_stalls;
          Alcotest.test_case "event windows concatenate" `Quick
            test_stepper_events_windows_concatenate;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "requests round-trip" `Quick
            test_protocol_roundtrip;
          Alcotest.test_case "malformed requests rejected" `Quick
            test_protocol_rejects;
          Alcotest.test_case "speedups round-trip" `Quick
            test_protocol_speedups_roundtrip;
          Alcotest.test_case "error codes round-trip" `Quick
            test_protocol_error_codes;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "replay bit-identical over unix socket" `Quick
            test_end_to_end_replay;
          Alcotest.test_case "protocol errors keep the session alive" `Quick
            test_end_to_end_protocol_errors;
          Alcotest.test_case "parse errors recover on the next line" `Quick
            test_end_to_end_parse_error_recovery;
          Alcotest.test_case "incremental session with late admission" `Quick
            test_end_to_end_incremental_session;
          Alcotest.test_case "concurrent sessions" `Quick
            test_end_to_end_concurrent_sessions;
        ] );
    ]
