(* The daemon's request decoder as it was before the one-pass decoder:
   [Moldable_obs.Json.of_string] builds a tree, and each field is looked
   up in it with [Json.member] and converted into a [result].  Kept
   verbatim (test-only) so qcheck properties in test_service.ml pin
   [Protocol.decode] and [Protocol.request_of_json] to it: same request,
   or same error code and message.  [decode] parses with the
   [Json_reference] lexer, so the pin does not share a lexer with the
   code under test. *)

open Moldable_model
open Moldable_service.Protocol
module Json = Moldable_obs.Json

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

let decode ?max_bytes line =
  match Json_reference.of_string ?max_bytes line with
  | Error e -> Error (Parse_error, e)
  | Ok j -> (
    match request_of_json j with
    | Error e -> Error (Bad_request, e)
    | Ok r -> Ok r)
