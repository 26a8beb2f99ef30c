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
    Fixtures.choose rng
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

(* Schedule, makespan, counts and every view of the two runs
   ([Reference.of_sim] forces them all). *)
let same_result (a : Sim_core.result) (b : Sim_core.result) =
  same_schedule a.Sim_core.schedule b.Sim_core.schedule
  && Moldable_oracle.Reference.of_sim a = Moldable_oracle.Reference.of_sim b

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
         [] (Metrics.events_from reference.Sim_core.metrics 0))
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
      | Metrics.Finish i -> finish_step.(i) <- step_of_time t
      | Metrics.Ready _ | Metrics.Start _ | Metrics.Failed _ -> ())
    (Metrics.events_from reference.Sim_core.metrics 0);
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
    let t = Sim_core.Stepper.next_event_time st in
    if t < infinity then begin
      admit_bucket !step;
      ignore (Sim_core.Stepper.advance st ~until:t : int);
      incr step;
      pump ()
    end
  in
  pump ();
  Alcotest.(check int) "every task admitted" n !next;
  Sim_core.Stepper.drain st

let gen_scenario rng =
  let dag = random_dag rng in
  let p = Rng.int_range rng 2 32 in
  let release_times =
    if Fixtures.coin rng then
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

(* The stall after progress: task 0 runs to completion, then the queue is
   empty while task 1 still waits on task 2, which is never admitted. *)
let test_stepper_stall_after_progress () =
  let p = 4 in
  let st = Sim_core.Stepper.create ~p (fifo_policy ~p ()) in
  ignore (Sim_core.Stepper.admit_task st (small_task 0) : int);
  ignore (Sim_core.Stepper.admit_task st ~deps:[ 2 ] (small_task 1) : int);
  let suffix = "stalled: 1 of 2 tasks completed but nothing is running" in
  (match Sim_core.Stepper.drain st with
  | _ -> Alcotest.fail "draining with task 1 unrevealable must stall"
  | exception Sim_core.Policy_error msg ->
    Alcotest.(check bool) (Printf.sprintf "%S ends in %S" msg suffix) true
      (String.ends_with ~suffix msg));
  Alcotest.(check bool) "closed after the stall" true
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
    let t = Sim_core.Stepper.next_event_time st in
    if t < infinity then begin
      ignore (Sim_core.Stepper.advance st ~until:t : int);
      snap ();
      pump ()
    end
  in
  pump ();
  let r = Sim_core.Stepper.drain st in
  let streamed = List.concat (List.rev !windows) in
  Alcotest.(check bool) "windows concatenate to the full trace" true
    (streamed = (Metrics.events_from r.Sim_core.metrics 0))

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
  reject {|{"op":"events","since":-1}|};
  (* Integral floats outside the 63-bit int range are valid JSON, so the
     decoder itself must refuse them: 1e19 would otherwise wrap into a
     silent dependency on task 0. *)
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error e -> Alcotest.fail (Printf.sprintf "%s does not parse: %s" s e)
      | Ok j -> (
        match Protocol.request_of_json j with
        | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %s" s)
        | Error _ -> ()))
    [
      {|{"op":"submit","model":"roofline","w":1,"ptilde":4,"deps":[1e19]}|};
      {|{"op":"submit","model":"roofline","w":1,"ptilde":4,|}
      ^ {|"deps":[4611686018427387904]}|};
      {|{"op":"events","since":1e300}|};
    ]

(* A session allocates O(p) state when it opens, so the decoder bounds p
   before the server builds anything: one line must not be able to ask for
   a 2^40-processor platform. *)
let test_protocol_bounds_p () =
  let open_p p =
    Protocol.request_of_json
      (Json.Obj [ ("op", Json.Str "open"); ("p", Json.Num (float_of_int p)) ])
  in
  List.iter
    (fun p ->
      match open_p p with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted p = %d" p)
      | Error _ -> ())
    [ 1 lsl 40; Protocol.max_p + 1 ];
  match open_p Protocol.max_p with
  | Ok (Protocol.Open o) ->
    Alcotest.(check int) "p = max_p accepted" Protocol.max_p o.Protocol.o_p
  | Ok _ | Error _ -> Alcotest.fail "p = max_p rejected"

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
  (* Every code has its own wire name, the one clients match on. *)
  Alcotest.(check (list string)) "code names"
    [ "parse_error"; "bad_request"; "limit"; "conflict"; "draining"; "internal" ]
    (List.map Protocol.error_code_name
       [
         Protocol.Parse_error; Protocol.Bad_request; Protocol.Limit;
         Protocol.Conflict; Protocol.Draining; Protocol.Internal;
       ])

(* ------------------------------------------------ one-pass decoder pin *)

module Ref = Moldable_oracle.Protocol_reference

(* Requests compare structurally and by their rendering, which tells
   [-0.] from [0.]. *)
let same_request a b =
  a = b
  &&
  match (Protocol.request_to_json a, Protocol.request_to_json b) with
  | Ok ja, Ok jb -> Json.to_string_compact ja = Json.to_string_compact jb
  | _ -> false

let same_decode a b =
  match (a, b) with
  | Ok ra, Ok rb -> same_request ra rb
  | Error (ca, ma), Error (cb, mb) -> ca = cb && String.equal ma mb
  | _ -> false

let show_decode = function
  | Ok r -> (
    match Protocol.request_to_json r with
    | Ok j -> "Ok " ^ Json.to_string_compact j
    | Error e -> "Ok <" ^ e ^ ">")
  | Error (c, m) -> Printf.sprintf "Error (%s, %S)" (Protocol.error_code_name c) m

let request_keys =
  [ "op"; "p"; "algorithm"; "priority"; "seed"; "max_attempts"; "failures";
    "model"; "w"; "ptilde"; "d"; "c"; "alpha"; "deps"; "release"; "label";
    "until"; "since"; "on"; "q"; "k" ]

let op_names =
  [ "ping"; "open"; "submit"; "advance"; "status"; "events"; "subscribe";
    "drain"; "schedule"; "makespan"; "metrics"; "close" ]

(* Number literals at the edges the decoder must agree on: the 63-bit
   range, negative zero, integral floats, overflow to infinity. *)
let edge_numbers =
  [ "0"; "-0"; "1"; "1.0"; "-1"; "2"; "16"; "0.5"; "1.5"; "0.25"; "1e400";
    "-1e400"; "1e308"; "4611686018427387904"; "-4611686018427387904";
    "4611686018427387903"; "-4611686018427387905"; "1048576"; "1048577";
    "123456789012345"; "1234567890123456"; "1e-3"; "7E1"; "2.5e+1"; "0.1" ]

let gen_number =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl edge_numbers);
        (1, map (Printf.sprintf "%d") (int_range (-5) 50));
        (1, map (Printf.sprintf "%.17g") (float_range (-10.) 1000.));
      ])

let gen_string_literal =
  QCheck.Gen.(
    map
      (fun s -> "\"" ^ s ^ "\"")
      (frequency
         [
           (4, oneofl op_names);
           ( 3,
             oneofl
               [ "roofline"; "communication"; "comm"; "amdahl"; "general";
                 "power"; "warp"; "original"; "improved"; "fifo";
                 "longest-first"; "never"; "bernoulli"; "at_most"; "t1"; "";
                 "stage\\n3"; "\\u0041b"; "\\ud83d\\ude00" ] );
           (1, oneofl [ "s\\u0070"; "\\u00e9"; "\\ud800"; "\\x"; "a\\u00zz" ]);
         ]))

(* A key, sometimes with its first byte written as a \u escape: ["\u006fp"]
   is the key [op]. *)
let gen_key =
  QCheck.Gen.(
    let* k =
      frequency
        [ (6, oneofl request_keys); (1, oneofl [ "x"; "opp"; "o"; ""; "OP" ]) ]
    in
    let* escape = frequency [ (5, return false); (1, return true) ] in
    return
      (if escape && k <> "" then
         Printf.sprintf "\"\\u%04x%s\"" (Char.code k.[0])
           (String.sub k 1 (String.length k - 1))
       else "\"" ^ k ^ "\""))

(* [n] nested arrays around a number: past the default depth bound once
   the enclosing object's levels are counted. *)
let nested n = String.make n '[' ^ "1" ^ String.make n ']'

let gen_value =
  QCheck.Gen.(
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           let leaf =
             [
               (4, gen_number);
               (3, gen_string_literal);
               (1, oneofl [ "true"; "false"; "null" ]);
               (1, oneofl [ "tru"; "nul"; "01"; "1."; "-"; "+1" ]);
             ]
           in
           if n = 0 then frequency leaf
           else
             frequency
               (leaf
               @ [
                   ( 2,
                     map
                       (fun xs -> "[" ^ String.concat "," xs ^ "]")
                       (list_size (int_bound 4)
                          (frequency [ (3, gen_number); (1, self (n - 1)) ])) );
                   ( 1,
                     map
                       (fun kvs ->
                         "{"
                         ^ String.concat ","
                             (List.map (fun (k, v) -> k ^ ":" ^ v) kvs)
                         ^ "}")
                       (list_size (int_bound 3) (pair gen_key (self (n - 1)))) );
                   (1, map nested (oneofl [ 2; 509; 510; 511; 512 ]));
                 ])))

(* Valid requests of every op, as the client would send them. *)
let gen_valid_request =
  QCheck.Gen.(
    let pos = float_range 0.01 100. in
    let speedup =
      oneof
        [
          map2 (fun w ptilde -> Speedup.Roofline { w; ptilde }) pos (int_range 1 64);
          map2 (fun w c -> Speedup.Communication { w; c }) pos pos;
          map2 (fun w d -> Speedup.Amdahl { w; d }) pos pos;
          map4
            (fun w ptilde d c -> Speedup.General { w; ptilde; d; c })
            pos (int_range 1 64) pos pos;
          map2 (fun w alpha -> Speedup.Power { w; alpha }) pos (float_range 0.1 1.);
        ]
    in
    oneof
      [
        oneofl
          Protocol.
            [ Ping; Status; Drain; Schedule; Makespan; Metrics; Close;
              Advance infinity ];
        map (fun x -> Protocol.Advance x) pos;
        map (fun k -> Protocol.Events k) (int_range 0 100);
        map (fun b -> Protocol.Subscribe b) bool;
        (let* o_p = int_range 1 4096 in
         let* o_algorithm = oneofl [ `Original; `Improved ] in
         let* o_priority = oneofl [ "fifo"; "longest-first"; "widest-first" ] in
         let* o_seed = int_range 0 1000 in
         let* o_max_attempts = opt (int_range 1 8) in
         let* o_failures =
           oneofl [ `Never; `Bernoulli 0.25; `At_most 3 ]
         in
         return
           (Protocol.Open
              { Protocol.o_p; o_algorithm; o_priority; o_seed; o_max_attempts;
                o_failures }));
        (let* s_speedup = speedup in
         let* s_deps = list_size (int_bound 5) (int_range 0 1000) in
         let* s_release = oneof [ return 0.; pos ] in
         let* s_label = oneofl [ ""; "t7"; "stage3" ] in
         return
           (Protocol.Submit
              { Protocol.s_label; s_speedup; s_deps = List.sort_uniq compare s_deps;
                s_release }));
      ])

(* The members of a valid request, as (key, value) texts. *)
let members_of req =
  match Protocol.request_to_json req with
  | Ok (Json.Obj fields) ->
    List.map
      (fun (k, v) -> ("\"" ^ k ^ "\"", Json.to_string_compact v))
      fields
  | _ -> assert false

(* Member-level edits: a duplicate (before or after the original), a
   wrong-typed value, an unknown or escaped key, a dropped member. *)
let gen_edit members =
  QCheck.Gen.(
    if members = [] then map2 (fun k v -> [ (k, v) ]) gen_key gen_value
    else
    let n = List.length members in
    let* i = int_bound (n - 1) in
    let nth = List.nth members i in
    let insert_at j m = List.filteri (fun k _ -> k < j) members @ [ m ]
                        @ List.filteri (fun k _ -> k >= j) members in
    frequency
      [
        (2, map (fun v -> insert_at i (fst nth, v)) gen_value);
        (2, map (fun v -> insert_at (i + 1) (fst nth, v)) gen_value);
        ( 3,
          map
            (fun v -> List.mapi (fun k m -> if k = i then (fst m, v) else m) members)
            gen_value );
        (2, map2 (fun k v -> insert_at i (k, v)) gen_key gen_value);
        (1, return (List.filteri (fun k _ -> k <> i) members));
      ])

let render_members ~spaced members =
  let sep, colon = if spaced then (", ", ": ") else (",", ":") in
  "{"
  ^ String.concat sep (List.map (fun (k, v) -> k ^ colon ^ v) members)
  ^ "}"

let byte_fragments = [ "\""; "{"; "}"; "["; "]"; ","; ":"; "\\"; "\n"; "\000"; "x"; "1"; " " ]

let rec mutate_bytes s k =
  QCheck.Gen.(
    if k = 0 || s = "" then return s
    else
      let* pos = int_bound (String.length s) in
      let* s' =
        frequency
          [
            (1, return (String.sub s 0 pos));
            ( 3,
              map
                (fun f ->
                  String.sub s 0 pos ^ f ^ String.sub s pos (String.length s - pos))
                (oneofl byte_fragments) );
            ( 2,
              return
                (if pos < String.length s then
                   String.sub s 0 pos
                   ^ String.sub s (pos + 1) (String.length s - pos - 1)
                 else s) );
          ]
      in
      mutate_bytes s' (k - 1))

let gen_line =
  QCheck.Gen.(
    let* line =
      frequency
        [
          ( 8,
            let* req = gen_valid_request in
            let* edits = int_bound 3 in
            let rec edit members k =
              if k = 0 then return members
              else
                let* members = gen_edit members in
                edit members (k - 1)
            in
            let* members = edit (members_of req) edits in
            let* spaced = bool in
            return (render_members ~spaced members) );
          (1, gen_value);
          (1, oneofl [ ""; " "; "{}"; "{} x"; "[1,2]"; "\"op\""; "{\"op\":\"ping\"} "; "\t{\"op\" : \"ping\"}\n" ]);
        ]
    in
    let* k = frequency [ (4, return 0); (1, int_range 1 3) ] in
    let* line = mutate_bytes line k in
    let* max_bytes =
      frequency
        [
          (12, return None);
          (1, return (Some (max 1 (String.length line - 1))));
          (1, return (Some (String.length line)));
          (1, return (Some 16));
        ]
    in
    return (line, max_bytes))

let prop_decode_matches_reference =
  let scratch = Protocol.scratch () in
  QCheck.Test.make
    ~name:"decode = Json.of_string then request_of_json, as they were (code \
           and message) on valid, edited and mutated lines"
    ~count:20000
    (QCheck.make
       ~print:(fun (line, max_bytes) ->
         Printf.sprintf "%S (max_bytes %s): decode %s, reference %s" line
           (match max_bytes with None -> "-" | Some n -> string_of_int n)
           (show_decode (Protocol.decode (Protocol.scratch ()) ?max_bytes line))
           (show_decode (Ref.decode ?max_bytes line)))
       gen_line)
    (fun (line, max_bytes) ->
      same_decode
        (Protocol.decode scratch ?max_bytes line)
        (Ref.decode ?max_bytes line))

(* Trees a parser can never produce too: NaN, infinities, integral floats
   past 2^62, lists and objects in any field. *)
let gen_tree =
  QCheck.Gen.(
    let num =
      oneofl
        [ 0.; -0.; 1.; 2.; 0.5; -1.; 16.; 1e300; infinity; neg_infinity; nan;
          0x1p62; -0x1p62; 0x1p62 -. 1024.; 1048577. ]
    in
    let str =
      oneofl
        ([ "roofline"; "comm"; "amdahl"; "general"; "power"; "improved";
           "bernoulli"; "at_most"; "never"; "warp"; "" ]
        @ op_names)
    in
    let scalar =
      frequency
        [
          (4, map (fun x -> Json.Num x) num);
          (3, map (fun s -> Json.Str s) str);
          (1, map (fun b -> Json.Bool b) bool);
          (1, return Json.Null);
        ]
    in
    let key = oneofl ("x" :: request_keys) in
    let value =
      frequency
        [
          (6, scalar);
          (1, map (fun xs -> Json.List xs) (list_size (int_bound 3) scalar));
          ( 1,
            map (fun kvs -> Json.Obj kvs) (list_size (int_bound 4) (pair key scalar)) );
        ]
    in
    frequency
      [
        ( 9,
          let* op = map (fun s -> Json.Str s) (oneofl op_names) in
          let* rest = list_size (int_range 0 8) (pair key value) in
          let* at = int_bound (List.length rest) in
          return
            (Json.Obj
               (List.filteri (fun k _ -> k < at) rest
               @ [ ("op", op) ]
               @ List.filteri (fun k _ -> k >= at) rest)) );
        (1, value);
      ])

let prop_tree_decoding_matches_reference =
  QCheck.Test.make
    ~name:"request_of_json and speedup_of_json over the field table = the \
           tree lookups they replaced, duplicate keys included"
    ~count:20000
    (QCheck.make ~print:Json.to_string_compact gen_tree)
    (fun j ->
      let same a b =
        match (a, b) with
        | Ok ra, Ok rb -> same_request ra rb
        | Error ma, Error mb -> String.equal ma mb
        | _ -> false
      in
      same (Protocol.request_of_json j) (Ref.request_of_json j)
      && (match (Protocol.speedup_of_json j, Ref.speedup_of_json j) with
        | Ok a, Ok b -> a = b
        | Error a, Error b -> String.equal a b
        | _ -> false))

(* The server decodes every line with one scratch per session: a submit
   line shaped like the benchmark's (a layered-DAG task with its deps and
   release time) costs a bounded number of minor words. *)
let test_decode_allocation () =
  let rng = Rng.create 3 in
  let lines =
    Array.init 64 (fun i ->
        let kind =
          [| Speedup.Kind_roofline; Speedup.Kind_communication;
             Speedup.Kind_amdahl; Speedup.Kind_general |].(i mod 4)
        in
        let deps = List.sort_uniq compare (List.init 3 (fun k -> (i * 7) + k)) in
        match
          Protocol.request_to_json
            (Protocol.Submit
               {
                 Protocol.s_label = Printf.sprintf "t%d" (1000 + i);
                 s_speedup = Params.random rng kind;
                 s_deps = deps;
                 s_release = 0.0123456789 *. float_of_int (i + 1);
               })
        with
        | Ok j -> Json.to_string_compact j
        | Error e -> Alcotest.fail e)
  in
  let scratch = Protocol.scratch () in
  let decode_all () =
    Array.iter
      (fun line ->
        match Protocol.decode scratch ~max_bytes:(1 lsl 20) line with
        | Ok (Protocol.Submit _) -> ()
        | r -> Alcotest.fail (show_decode r))
      lines
  in
  decode_all ();
  let reps = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    decode_all ()
  done;
  let words =
    (Gc.minor_words () -. before) /. float_of_int (reps * Array.length lines)
  in
  if words > 100. then
    Alcotest.failf "%.1f minor words per submit line (at most 100)" words

(* ------------------------------------------------- end-to-end (daemon) *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let with_daemon ?(sessions = 2) ?(limits = Server.default_limits)
    ?(registry = Moldable_obs.Registry.create ()) f =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "moldable_test_%d.sock" (Unix.getpid ()))
  in
  let config =
    { (Server.default_config ~registry ()) with Server.sessions; limits }
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
  (match Client.rpc c Protocol.Ping with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
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

(* A connection driven by hand: [send] writes raw request text and
   [response] reads the next response line. *)
let with_raw_connection path f =
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
  f ~send ~response

let test_end_to_end_parse_error_recovery () =
  (* The newline framing recovers after a line of garbage, answering
     parse_error without dropping the session. *)
  with_daemon @@ fun path ->
  with_raw_connection path @@ fun ~send ~response ->
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

(* A submit whose parameters overflow: [1e400] reads as infinity and is a
   bad_request; finite extremes are admitted, and the advance whose event
   time overflows answers internal and abandons the run, but the session
   (and, at shutdown, [serve]) carry on. *)
let test_end_to_end_hostile_submit () =
  with_daemon ~sessions:1 @@ fun path ->
  with_raw_connection path @@ fun ~send ~response ->
  let expect code line =
    send (line ^ "\n");
    let resp = response () in
    let got =
      match (Json.member "ok" resp, Json.member "error" resp) with
      | Some (Json.Bool true), _ -> "ok"
      | _, Some (Json.Str c) -> c
      | _ -> Json.to_string_compact resp
    in
    Alcotest.(check string) line code got;
    resp
  in
  let expect_ code line = ignore (expect code line : Json.t) in
  expect_ "ok" {|{"op":"open","p":4}|};
  expect_ "bad_request" {|{"op":"submit","model":"amdahl","w":1e400,"d":0.5}|};
  expect_ "ok" {|{"op":"advance"}|};
  expect_ "ok" {|{"op":"drain"}|};
  expect_ "ok" {|{"op":"open","p":64}|};
  expect_ "ok" {|{"op":"submit","model":"amdahl","w":1e308,"d":1e308}|};
  expect_ "internal" {|{"op":"advance"}|};
  expect_ "ok" {|{"op":"ping"}|};
  let status = expect "ok" {|{"op":"status"}|} in
  Alcotest.(check bool) "the run was abandoned" true
    (Json.member "phase" status = Some (Json.Str "idle"))

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
    (field "phase" Json.to_str status);
  (* A drained session serves any window of its trace: [events since k] is
     the local run's trace from event [k] on, and [next] is the trace
     length (or [k] past the end). *)
  let trace = Metrics.events_from local.Sim_core.metrics 0 in
  let n_events = List.length trace in
  List.iter
    (fun since ->
      let resp = rpc_exn (Protocol.Events since) in
      Alcotest.(check int)
        (Printf.sprintf "next after since=%d" since)
        (max since n_events)
        (field "next" Json.to_int resp);
      let expected =
        List.filteri (fun k _ -> k >= since) trace
        |> List.map (fun (t, e) -> Protocol.event_to_json t e)
      in
      Alcotest.(check bool)
        (Printf.sprintf "events since=%d" since)
        true
        (field "events" Json.to_list resp = expected))
    [ 0; 3; n_events - 1; n_events; n_events + 5 ]

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

(* ------------------------------------------- pipelining and limits *)

(* These drive a raw socket: each test writes a whole batch of request
   lines at once, so the daemon reads them in one go and answers them with
   one buffered write, and then reads everything the daemon sends until it
   closes the connection. *)

let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let with_raw path f =
  let fd = raw_connect path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd)

let send_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let parse_response line =
  match Json.of_string line with
  | Ok j -> j
  | Error e -> Alcotest.fail (Printf.sprintf "%s: %S" e line)

(* The response lines up to the daemon's close.  A daemon that closes with
   request bytes still unread makes a Unix-socket peer see ECONNRESET after
   the delivered data; that ends the stream too. *)
let read_to_eof fd =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | r ->
      Buffer.add_subbytes buf chunk 0 r;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Alcotest.fail "the daemon neither answered nor closed within 10 s"
  in
  go ();
  match List.rev (String.split_on_char '\n' (Buffer.contents buf)) with
  | "" :: rev_lines -> List.rev_map parse_response rev_lines
  | _ -> Alcotest.fail "the response stream does not end with a newline"

let request_line req =
  match Protocol.request_to_json req with
  | Ok j -> Json.to_string_compact j ^ "\n"
  | Error e -> Alcotest.fail e

let open_line =
  request_line
    (Protocol.Open
       {
         Protocol.o_p = 4;
         o_algorithm = `Original;
         o_priority = "fifo";
         o_seed = 0;
         o_max_attempts = None;
         o_failures = `Never;
       })

let submit_line i =
  request_line
    (Protocol.Submit
       {
         Protocol.s_label = Printf.sprintf "t%d" i;
         s_speedup = Speedup.Amdahl { w = 4.; d = 0.5 };
         s_deps = [];
         s_release = 0.;
       })

let repeat k line = String.concat "" (List.init k (fun _ -> line))

let check_ok what resp =
  match Json.member "ok" resp with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail (what ^ ": " ^ Json.to_string_compact resp)

let check_limit resp =
  match Json.member "error" resp with
  | Some (Json.Str "limit") -> ()
  | _ -> Alcotest.fail ("expected a limit error: " ^ Json.to_string_compact resp)

let test_pipelined_submits_then_close () =
  with_daemon @@ fun path ->
  with_raw path @@ fun fd ->
  let k = 50 in
  send_all fd
    (open_line
    ^ String.concat "" (List.init k submit_line)
    ^ request_line Protocol.Close);
  match read_to_eof fd with
  | opened :: rest ->
    check_ok "open" opened;
    Alcotest.(check int) "k submits and the close answered" (k + 1)
      (List.length rest);
    List.iteri
      (fun i resp ->
        if i < k then
          Alcotest.(check (option int))
            "ids in submission order" (Some i)
            (Option.bind (Json.member "id" resp) Json.to_int)
        else
          Alcotest.(check bool) "close answered last" true
            (Json.member "closing" resp = Some (Json.Bool true)))
      rest
  | [] -> Alcotest.fail "no response"

let test_pipelined_then_overlong_line () =
  let max_line_bytes = 256 in
  with_daemon ~limits:{ Server.default_limits with max_line_bytes }
  @@ fun path ->
  with_raw path @@ fun fd ->
  let k = 7 in
  send_all fd
    (repeat k (request_line Protocol.Ping)
    ^ String.make (max_line_bytes + 100) 'x');
  let resps = read_to_eof fd in
  Alcotest.(check int) "k answers and one limit error" (k + 1)
    (List.length resps);
  List.iteri
    (fun i resp -> if i < k then check_ok "ping" resp else check_limit resp)
    resps

let test_request_budget_mid_batch () =
  let k = 5 in
  with_daemon ~limits:{ Server.default_limits with max_requests = k }
  @@ fun path ->
  with_raw path @@ fun fd ->
  send_all fd (repeat (k + 3) (request_line Protocol.Ping));
  let resps = read_to_eof fd in
  Alcotest.(check int) "k answers and one limit error" (k + 1)
    (List.length resps);
  List.iteri
    (fun i resp -> if i < k then check_ok "ping" resp else check_limit resp)
    resps

let evictions registry =
  List.fold_left
    (fun acc ms ->
      match ms with
      | {
       Moldable_obs.Registry.ms_name = "moldable_service_evictions";
       ms_value = Moldable_obs.Registry.Counter_v v;
       _;
      } ->
        v
      | _ -> acc)
    0.
    (Moldable_obs.Registry.snapshot registry)

let test_non_reading_client_evicted () =
  let registry = Moldable_obs.Registry.create () in
  with_daemon ~sessions:1 ~registry
    ~limits:{ Server.default_limits with write_timeout = 0.2 }
  @@ fun path ->
  with_raw path @@ fun fd ->
  (* 200 schedules of a 300-task run are megabytes of responses, far more
     than the socket buffers hold for a peer that never reads. *)
  send_all fd
    (open_line
    ^ String.concat "" (List.init 300 submit_line)
    ^ request_line Protocol.Drain
    ^ repeat 200 (request_line Protocol.Schedule));
  let deadline = Unix.gettimeofday () +. 10. in
  while evictions registry < 1. && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.02
  done;
  Alcotest.(check (float 0.)) "the non-reading session was evicted" 1.
    (evictions registry);
  (* The only session worker is free again. *)
  let c = connect_exn path in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.rpc c Protocol.Ping with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

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
          Alcotest.test_case "stall after a completed task" `Quick
            test_stepper_stall_after_progress;
          Alcotest.test_case "event windows concatenate" `Quick
            test_stepper_events_windows_concatenate;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "requests round-trip" `Quick
            test_protocol_roundtrip;
          Alcotest.test_case "malformed requests rejected" `Quick
            test_protocol_rejects;
          Alcotest.test_case "open bounds p" `Quick test_protocol_bounds_p;
          Alcotest.test_case "speedups round-trip" `Quick
            test_protocol_speedups_roundtrip;
          Alcotest.test_case "error codes round-trip" `Quick
            test_protocol_error_codes;
        ] );
      ( "decoder",
        [
          qt prop_decode_matches_reference;
          qt prop_tree_decoding_matches_reference;
          Alcotest.test_case "submit line minor words" `Quick
            test_decode_allocation;
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
          Alcotest.test_case "hostile submit keeps the session" `Quick
            test_end_to_end_hostile_submit;
        ] );
      ( "pipelining",
        [
          Alcotest.test_case "k submits and close in one write" `Quick
            test_pipelined_submits_then_close;
          Alcotest.test_case "k requests then an overlong line" `Quick
            test_pipelined_then_overlong_line;
          Alcotest.test_case "request budget ends a batch" `Quick
            test_request_budget_mid_batch;
          Alcotest.test_case "non-reading client evicted" `Quick
            test_non_reading_client_evicted;
        ] );
    ]
