open Moldable_model
open Moldable_sim
open Moldable_core
module Json = Moldable_obs.Json

type algorithm = [ `Original | `Improved ]

type open_spec = {
  o_p : int;
  o_algorithm : algorithm;
  o_priority : string;
  o_seed : int;
  o_max_attempts : int option;
  o_failures : [ `Never | `Bernoulli of float | `At_most of int ];
}

type submit_spec = {
  s_label : string;
  s_speedup : Speedup.t;
  s_deps : int list;
  s_release : float;
}

type request =
  | Ping
  | Open of open_spec
  | Submit of submit_spec
  | Advance of float
  | Status
  | Events of int
  | Subscribe of bool
  | Drain
  | Schedule
  | Makespan
  | Metrics
  | Close

type error_code =
  | Parse_error
  | Bad_request
  | Limit
  | Conflict
  | Draining
  | Internal

let error_code_name = function
  | Parse_error -> "parse_error"
  | Bad_request -> "bad_request"
  | Limit -> "limit"
  | Conflict -> "conflict"
  | Draining -> "draining"
  | Internal -> "internal"

let error_code_of_name = function
  | "parse_error" -> Some Parse_error
  | "bad_request" -> Some Bad_request
  | "limit" -> Some Limit
  | "conflict" -> Some Conflict
  | "draining" -> Some Draining
  | "internal" -> Some Internal
  | _ -> None

(* ---------------------------------------------------------------- building *)

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)

let error code message =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ("error", Json.Str (error_code_name code));
      ("message", Json.Str message);
    ]

let speedup_to_json sp =
  let obj model fields = Ok (Json.Obj (("model", Json.Str model) :: fields)) in
  let num x = Json.Num x and int i = Json.Num (float_of_int i) in
  match sp with
  | Speedup.Roofline { w; ptilde } ->
    obj "roofline" [ ("w", num w); ("ptilde", int ptilde) ]
  | Speedup.Communication { w; c } -> obj "communication" [ ("w", num w); ("c", num c) ]
  | Speedup.Amdahl { w; d } -> obj "amdahl" [ ("w", num w); ("d", num d) ]
  | Speedup.General { w; ptilde; d; c } ->
    obj "general" [ ("w", num w); ("ptilde", int ptilde); ("d", num d); ("c", num c) ]
  | Speedup.Power { w; alpha } -> obj "power" [ ("w", num w); ("alpha", num alpha) ]
  | Speedup.Arbitrary { name; _ } ->
    Error
      (Printf.sprintf
         "arbitrary speedup %S has no finite description and cannot be sent"
         name)

let event_to_json t ev =
  let base kind task extra =
    Json.Obj
      (("t", Json.Num t) :: ("kind", Json.Str kind)
      :: ("task", Json.Num (float_of_int task))
      :: extra)
  in
  match ev with
  | Sim_core.Ready i -> base "ready" i []
  | Sim_core.Start (i, a) ->
    base "start" i [ ("nprocs", Json.Num (float_of_int a)) ]
  | Sim_core.Finish i -> base "finish" i []
  | Sim_core.Failed (i, attempt) ->
    base "failed" i [ ("attempt", Json.Num (float_of_int attempt)) ]

let placement_to_json (pl : Schedule.placement) =
  Json.Obj
    [
      ("task", Json.Num (float_of_int pl.Schedule.task_id));
      ("start", Json.Num pl.Schedule.start);
      ("finish", Json.Num pl.Schedule.finish);
      ("nprocs", Json.Num (float_of_int pl.Schedule.nprocs));
      ( "procs",
        Json.List
          (Array.to_list
             (Array.map (fun q -> Json.Num (float_of_int q)) pl.Schedule.procs))
      );
    ]

let request_to_json = function
  | Ping -> Ok (Json.Obj [ ("op", Json.Str "ping") ])
  | Open o ->
    let fields =
      [
        ("op", Json.Str "open");
        ("p", Json.Num (float_of_int o.o_p));
        ( "algorithm",
          Json.Str
            (match o.o_algorithm with
            | `Original -> "original"
            | `Improved -> "improved") );
        ("priority", Json.Str o.o_priority);
        ("seed", Json.Num (float_of_int o.o_seed));
      ]
      @ (match o.o_max_attempts with
        | None -> []
        | Some k -> [ ("max_attempts", Json.Num (float_of_int k)) ])
      @
      match o.o_failures with
      | `Never -> []
      | `Bernoulli q ->
        [ ("failures", Json.Obj [ ("model", Json.Str "bernoulli"); ("q", Json.Num q) ]) ]
      | `At_most k ->
        [ ( "failures",
            Json.Obj
              [ ("model", Json.Str "at_most"); ("k", Json.Num (float_of_int k)) ] )
        ]
    in
    Ok (Json.Obj fields)
  | Submit s -> (
    match speedup_to_json s.s_speedup with
    | Error _ as e -> e
    | Ok (Json.Obj model_fields) ->
      Ok
        (Json.Obj
           ([ ("op", Json.Str "submit"); ("label", Json.Str s.s_label) ]
           @ model_fields
           @ [
               ( "deps",
                 Json.List
                   (List.map (fun d -> Json.Num (float_of_int d)) s.s_deps) );
               ("release", Json.Num s.s_release);
             ]))
    | Ok _ -> assert false)
  | Advance until ->
    Ok
      (Json.Obj
         (("op", Json.Str "advance")
         :: (if Float.is_finite until then [ ("until", Json.Num until) ] else [])))
  | Status -> Ok (Json.Obj [ ("op", Json.Str "status") ])
  | Events since ->
    Ok
      (Json.Obj
         [ ("op", Json.Str "events"); ("since", Json.Num (float_of_int since)) ])
  | Subscribe on ->
    Ok (Json.Obj [ ("op", Json.Str "subscribe"); ("on", Json.Bool on) ])
  | Drain -> Ok (Json.Obj [ ("op", Json.Str "drain") ])
  | Schedule -> Ok (Json.Obj [ ("op", Json.Str "schedule") ])
  | Makespan -> Ok (Json.Obj [ ("op", Json.Str "makespan") ])
  | Metrics -> Ok (Json.Obj [ ("op", Json.Str "metrics") ])
  | Close -> Ok (Json.Obj [ ("op", Json.Str "close") ])

(* ----------------------------------------------------------------- parsing *)

let ( let* ) = Result.bind

let req_field name conv j =
  match Json.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
    match conv v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let opt_field name conv default j =
  match Json.member name j with
  | None -> Ok default
  | Some v -> (
    match conv v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let speedup_of_json j =
  let* model = req_field "model" Json.to_str j in
  let* sp =
    match model with
    | "roofline" ->
      let* w = req_field "w" Json.to_float j in
      let* ptilde = req_field "ptilde" Json.to_int j in
      Ok (Speedup.Roofline { w; ptilde })
    | "communication" | "comm" ->
      let* w = req_field "w" Json.to_float j in
      let* c = req_field "c" Json.to_float j in
      Ok (Speedup.Communication { w; c })
    | "amdahl" ->
      let* w = req_field "w" Json.to_float j in
      let* d = req_field "d" Json.to_float j in
      Ok (Speedup.Amdahl { w; d })
    | "general" ->
      let* w = req_field "w" Json.to_float j in
      let* ptilde = req_field "ptilde" Json.to_int j in
      let* d = req_field "d" Json.to_float j in
      let* c = req_field "c" Json.to_float j in
      Ok (Speedup.General { w; ptilde; d; c })
    | "power" ->
      let* w = req_field "w" Json.to_float j in
      let* alpha = req_field "alpha" Json.to_float j in
      Ok (Speedup.Power { w; alpha })
    | other -> Error (Printf.sprintf "unknown speedup model %S" other)
  in
  match Speedup.validate sp with
  | Ok () -> Ok sp
  | Error e -> Error (Printf.sprintf "invalid %s parameters: %s" model e)

let int_list j =
  match Json.to_list j with
  | None -> None
  | Some items ->
    let rec conv acc = function
      | [] -> Some (List.rev acc)
      | x :: rest -> (
        match Json.to_int x with
        | Some i -> conv (i :: acc) rest
        | None -> None)
    in
    conv [] items

let failures_of_json j =
  let* model = req_field "model" Json.to_str j in
  match model with
  | "never" -> Ok `Never
  | "bernoulli" ->
    let* q = req_field "q" Json.to_float j in
    if q >= 0. && q < 1. then Ok (`Bernoulli q)
    else Error "failure probability q must be in [0, 1)"
  | "at_most" ->
    let* k = req_field "k" Json.to_int j in
    if k >= 0 then Ok (`At_most k) else Error "at_most k must be >= 0"
  | other -> Error (Printf.sprintf "unknown failure model %S" other)

(* A session allocates O(p) state at open (ready queue, platform), so a
   platform size is bounded before anything is built. *)
let max_p = 1 lsl 20

let open_of_json j =
  let* o_p = req_field "p" Json.to_int j in
  if o_p < 1 then Error "p must be >= 1"
  else if o_p > max_p then Error (Printf.sprintf "p must be <= %d" max_p)
  else
    let* algo_name = opt_field "algorithm" Json.to_str "original" j in
    let* o_algorithm =
      match algo_name with
      | "original" -> Ok `Original
      | "improved" -> Ok `Improved
      | other -> Error (Printf.sprintf "unknown algorithm %S" other)
    in
    let* o_priority = opt_field "priority" Json.to_str "fifo" j in
    let* o_seed = opt_field "seed" Json.to_int 0 j in
    let* o_max_attempts =
      match Json.member "max_attempts" j with
      | None -> Ok None
      | Some v -> (
        match Json.to_int v with
        | Some k when k >= 1 -> Ok (Some k)
        | Some _ -> Error "max_attempts must be >= 1"
        | None -> Error "field \"max_attempts\" has the wrong type")
    in
    let* o_failures =
      match Json.member "failures" j with
      | None -> Ok `Never
      | Some f -> failures_of_json f
    in
    Ok (Open { o_p; o_algorithm; o_priority; o_seed; o_max_attempts; o_failures })

let submit_of_json j =
  let* s_speedup = speedup_of_json j in
  let* s_deps = opt_field "deps" int_list [] j in
  let* s_release = opt_field "release" Json.to_float 0. j in
  if not (Float.is_finite s_release) || s_release < 0. then
    Error "release must be finite and >= 0"
  else
    let* s_label = opt_field "label" Json.to_str "" j in
    Ok (Submit { s_label; s_speedup; s_deps; s_release })

let request_of_json j =
  match j with
  | Json.Obj _ -> (
    let* op = req_field "op" Json.to_str j in
    match op with
    | "ping" -> Ok Ping
    | "open" -> open_of_json j
    | "submit" -> submit_of_json j
    | "advance" ->
      let* until = opt_field "until" Json.to_float infinity j in
      if Float.is_nan until then Error "until must not be NaN"
      else Ok (Advance until)
    | "status" -> Ok Status
    | "events" ->
      let* since = opt_field "since" Json.to_int 0 j in
      if since < 0 then Error "since must be >= 0" else Ok (Events since)
    | "subscribe" ->
      let* on =
        opt_field "on"
          (function Json.Bool b -> Some b | _ -> None)
          true j
      in
      Ok (Subscribe on)
    | "drain" -> Ok Drain
    | "schedule" -> Ok Schedule
    | "makespan" -> Ok Makespan
    | "metrics" -> Ok Metrics
    | "close" -> Ok Close
    | other -> Error (Printf.sprintf "unknown op %S" other))
  | _ -> Error "request must be a JSON object"

let placement_of_json j =
  let* task_id = req_field "task" Json.to_int j in
  let* start = req_field "start" Json.to_float j in
  let* finish = req_field "finish" Json.to_float j in
  let* nprocs = req_field "nprocs" Json.to_int j in
  let* procs = req_field "procs" int_list j in
  let procs = Array.of_list procs in
  if Array.length procs <> nprocs then
    Error "procs length does not match nprocs"
  else Ok { Schedule.task_id; start; finish; nprocs; procs }

let priority_of_name name =
  List.find_opt (fun pr -> pr.Priority.name = name) Priority.all

let allocator_of_algorithm = function
  | `Original -> Allocator.algorithm2_per_model
  | `Improved -> Improved_alloc.per_model

let failure_model_of_spec = function
  | `Never -> Ok Sim_core.never
  | `Bernoulli q ->
    if q >= 0. && q < 1. then Ok (Sim_core.bernoulli ~q)
    else Error "failure probability q must be in [0, 1)"
  | `At_most k ->
    if k >= 0 then Ok (Sim_core.at_most ~k) else Error "at_most k must be >= 0"
