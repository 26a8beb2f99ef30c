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
  | Metrics.Ready i -> base "ready" i []
  | Metrics.Start (i, a) ->
    base "start" i [ ("nprocs", Json.Num (float_of_int a)) ]
  | Metrics.Finish i -> base "finish" i []
  | Metrics.Failed (i, attempt) ->
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

(* Both readers of a request, the one-pass [decode] and [request_of_json]
   over a tree, fill one table of typed fields, and [finish] alone turns
   the table into a request: every check and every message lives there.

   The table has one slot per field name a request can carry.  A slot
   keeps the first binding of its key, so a duplicated key resolves as
   [Json.member] resolves it; later bindings and unknown keys are checked
   and skipped.  The fields of the [failures] object sit in the last
   three slots. *)

let keys =
  [| "op"; "p"; "algorithm"; "priority"; "seed"; "max_attempts"; "failures";
     "model"; "w"; "ptilde"; "d"; "c"; "alpha"; "deps"; "release"; "label";
     "until"; "since"; "on" |]

let failure_keys = [| "model"; "q"; "k" |]

let k_op = 0
let k_p = 1
let k_algorithm = 2
let k_priority = 3
let k_seed = 4
let k_max_attempts = 5
let k_failures = 6
let k_model = 7
let k_w = 8
let k_ptilde = 9
let k_d = 10
let k_c = 11
let k_alpha = 12
let k_deps = 13
let k_release = 14
let k_label = 15
let k_until = 16
let k_since = 17
let k_on = 18
let k_failure_base = Array.length keys
let k_failure_model = k_failure_base
let k_failure_q = k_failure_base + 1
let k_failure_k = k_failure_base + 2
let n_slots = k_failure_base + Array.length failure_keys

let key_set = Json.keys keys
let failure_key_set = Json.keys failure_keys

(* String values the decoder stores without a copy of the line's bytes. *)
let value_names =
  Json.keys
    [| "ping"; "open"; "submit"; "advance"; "status"; "events"; "subscribe";
       "drain"; "schedule"; "makespan"; "metrics"; "close"; "roofline";
       "communication"; "comm"; "amdahl"; "general"; "power"; "original";
       "improved"; "fifo"; "never"; "bernoulli"; "at_most" |]

(* [Ints] is a list of integers in the 63-bit range, held in [ints]; any
   other list is [Other], like objects and [null]. *)
type kind = Absent | Number | String | True | False | Ints | Other

type scratch = {
  mutable present : int;  (** Bit [slot] is set once the slot is filled. *)
  kinds : kind array;  (** Valid where [present] says so. *)
  nums : float array;  (** The value of a [Number] slot, unboxed. *)
  strs : string array;
  mutable ints : int array;
  mutable n_ints : int;
}

let scratch () =
  {
    present = 0;
    kinds = Array.make n_slots Absent;
    nums = Array.make n_slots 0.;
    strs = Array.make n_slots "";
    ints = Array.make 16 0;
    n_ints = 0;
  }

let kind t slot =
  if t.present land (1 lsl slot) = 0 then Absent else t.kinds.(slot)

let set t slot k =
  t.kinds.(slot) <- k;
  t.present <- t.present lor (1 lsl slot)

let slot_name slot =
  if slot < k_failure_base then keys.(slot)
  else failure_keys.(slot - k_failure_base)

(* [Json.to_int]'s range: an integral float outside it would wrap in
   [int_of_float]. *)
let is_int63 x = Float.is_integer x && x >= -0x1p62 && x < 0x1p62

let push_int t i =
  if t.n_ints = Array.length t.ints then begin
    let bigger = Array.make (2 * t.n_ints) 0 in
    Array.blit t.ints 0 bigger 0 t.n_ints;
    t.ints <- bigger
  end;
  t.ints.(t.n_ints) <- i;
  t.n_ints <- t.n_ints + 1

(* ------------------------------------------------ filling, from the wire *)

(* Loops are [while] loops over local refs, so reading a line allocates
   only the strings and numbers it keeps. *)
let rec read_members t cur names base depth =
  if Json.object_start cur ~depth then begin
    let more = ref true in
    while !more do
      let i = Json.key cur names in
      if i < 0 || t.present land (1 lsl (base + i)) <> 0 then
        Json.skip cur ~depth:(depth + 1)
      else read_value t cur (base + i) (depth + 1);
      more := Json.object_more cur
    done
  end

and read_value t cur slot depth =
  match Json.next cur with
  | '"' ->
    Json.string cur value_names t.strs slot;
    set t slot String
  | '-' | '0' .. '9' ->
    Json.number cur t.nums slot;
    set t slot Number
  | '[' when slot = k_deps -> read_ints t cur depth
  | '{' when slot = k_failures ->
    set t slot Other;
    read_members t cur failure_key_set k_failure_base depth
  | c ->
    Json.skip cur ~depth;
    set t slot (match c with 't' -> True | 'f' -> False | _ -> Other)

(* The items go through [nums.(k_deps)] on their way into [ints]. *)
and read_ints t cur depth =
  t.n_ints <- 0;
  let all_ints = ref true in
  if Json.array_start cur ~depth then begin
    let more = ref true in
    while !more do
      (match Json.next cur with
      | '-' | '0' .. '9' ->
        Json.number cur t.nums k_deps;
        let x = t.nums.(k_deps) in
        if is_int63 x then push_int t (int_of_float x) else all_ints := false
      | _ ->
        Json.skip cur ~depth:(depth + 1);
        all_ints := false);
      more := Json.array_more cur
    done
  end;
  set t k_deps (if !all_ints then Ints else Other)

(* ------------------------------------------------ filling, from a tree *)

let rec index names k i =
  if i >= Array.length names then -1
  else if String.equal names.(i) k then i
  else index names k (i + 1)

let rec fill_fields t names base fields =
  List.iter
    (fun (k, v) ->
      let i = index names k 0 in
      if i >= 0 && kind t (base + i) = Absent then fill_slot t (base + i) v)
    fields

and fill_slot t slot v =
  set t slot
    (match v with
    | Json.Num x ->
      t.nums.(slot) <- x;
      Number
    | Json.Str s ->
      t.strs.(slot) <- s;
      String
    | Json.Bool b -> if b then True else False
    | Json.List items when slot = k_deps ->
      t.n_ints <- 0;
      if
        List.for_all
          (function
            | Json.Num x when is_int63 x ->
              push_int t (int_of_float x);
              true
            | _ -> false)
          items
      then Ints
      else Other
    | Json.Obj fields when slot = k_failures ->
      fill_fields t failure_keys k_failure_base fields;
      Other
    | Json.Null | Json.List _ | Json.Obj _ -> Other)

(* ---------------------------------------------------------- finishing *)

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

let bad_slot t slot =
  match kind t slot with
  | Absent -> invalid "missing field %S" (slot_name slot)
  | _ -> invalid "field %S has the wrong type" (slot_name slot)

let str t slot =
  match kind t slot with String -> t.strs.(slot) | _ -> bad_slot t slot

let num t slot =
  match kind t slot with Number -> t.nums.(slot) | _ -> bad_slot t slot

let int t slot =
  match kind t slot with
  | Number when is_int63 t.nums.(slot) -> int_of_float t.nums.(slot)
  | _ -> bad_slot t slot

let opt_str t slot default =
  match kind t slot with Absent -> default | _ -> str t slot

let opt_num t slot default =
  match kind t slot with Absent -> default | _ -> num t slot

let opt_int t slot default =
  match kind t slot with Absent -> default | _ -> int t slot

let speedup t =
  let model = str t k_model in
  let sp =
    match model with
    | "roofline" ->
      let w = num t k_w in
      let ptilde = int t k_ptilde in
      Speedup.Roofline { w; ptilde }
    | "communication" | "comm" ->
      let w = num t k_w in
      let c = num t k_c in
      Speedup.Communication { w; c }
    | "amdahl" ->
      let w = num t k_w in
      let d = num t k_d in
      Speedup.Amdahl { w; d }
    | "general" ->
      let w = num t k_w in
      let ptilde = int t k_ptilde in
      let d = num t k_d in
      let c = num t k_c in
      Speedup.General { w; ptilde; d; c }
    | "power" ->
      let w = num t k_w in
      let alpha = num t k_alpha in
      Speedup.Power { w; alpha }
    | other -> invalid "unknown speedup model %S" other
  in
  match Speedup.validate sp with
  | Ok () -> sp
  | Error e -> invalid "invalid %s parameters: %s" model e

let failures t =
  match str t k_failure_model with
  | "never" -> `Never
  | "bernoulli" ->
    let q = num t k_failure_q in
    if q >= 0. && q < 1. then `Bernoulli q
    else invalid "failure probability q must be in [0, 1)"
  | "at_most" ->
    let k = int t k_failure_k in
    if k >= 0 then `At_most k else invalid "at_most k must be >= 0"
  | other -> invalid "unknown failure model %S" other

(* A session allocates O(p) state at open (ready queue, platform), so a
   platform size is bounded before anything is built. *)
let max_p = 1 lsl 20

let open_spec t =
  let o_p = int t k_p in
  if o_p < 1 then invalid "p must be >= 1";
  if o_p > max_p then invalid "p must be <= %d" max_p;
  let o_algorithm =
    match opt_str t k_algorithm "original" with
    | "original" -> `Original
    | "improved" -> `Improved
    | other -> invalid "unknown algorithm %S" other
  in
  let o_priority = opt_str t k_priority "fifo" in
  let o_seed = opt_int t k_seed 0 in
  let o_max_attempts =
    match kind t k_max_attempts with
    | Absent -> None
    | _ ->
      let k = int t k_max_attempts in
      if k >= 1 then Some k else invalid "max_attempts must be >= 1"
  in
  let o_failures =
    match kind t k_failures with Absent -> `Never | _ -> failures t
  in
  Open { o_p; o_algorithm; o_priority; o_seed; o_max_attempts; o_failures }

let submit_spec t =
  let s_speedup = speedup t in
  let s_deps =
    match kind t k_deps with
    | Absent -> []
    | Ints ->
      let deps = ref [] in
      for i = t.n_ints - 1 downto 0 do
        deps := t.ints.(i) :: !deps
      done;
      !deps
    | _ -> bad_slot t k_deps
  in
  let s_release = opt_num t k_release 0. in
  if not (Float.is_finite s_release) || s_release < 0. then
    invalid "release must be finite and >= 0";
  let s_label = opt_str t k_label "" in
  Submit { s_label; s_speedup; s_deps; s_release }

let request t =
  match str t k_op with
  | "ping" -> Ping
  | "open" -> open_spec t
  | "submit" -> submit_spec t
  | "advance" ->
    let until = opt_num t k_until infinity in
    if Float.is_nan until then invalid "until must not be NaN";
    Advance until
  | "status" -> Status
  | "events" ->
    let since = opt_int t k_since 0 in
    if since < 0 then invalid "since must be >= 0";
    Events since
  | "subscribe" -> (
    match kind t k_on with
    | Absent | True -> Subscribe true
    | False -> Subscribe false
    | _ -> bad_slot t k_on)
  | "drain" -> Drain
  | "schedule" -> Schedule
  | "makespan" -> Makespan
  | "metrics" -> Metrics
  | "close" -> Close
  | other -> invalid "unknown op %S" other

let finish conv t = match conv t with r -> Ok r | exception Invalid m -> Error m

let not_an_object = "request must be a JSON object"

let decode t ?max_bytes line =
  t.present <- 0;
  match
    let cur = Json.cursor ?max_bytes line in
    let is_object = Json.next cur = '{' in
    if is_object then read_members t cur key_set 0 0
    else Json.skip cur ~depth:0;
    Json.finish cur;
    is_object
  with
  | exception Json.Parse_error m -> Error (Parse_error, m)
  | false -> Error (Bad_request, not_an_object)
  | true -> (
    match finish request t with
    | Ok _ as ok -> ok
    | Error m -> Error (Bad_request, m))

(* [request_of_json] and [speedup_of_json] fill a table of their own per
   domain, so that no call shares one with a daemon session. *)
let tree_scratch = Domain.DLS.new_key scratch

let of_tree conv j =
  let t = Domain.DLS.get tree_scratch in
  t.present <- 0;
  (match j with Json.Obj fields -> fill_fields t keys 0 fields | _ -> ());
  finish conv t

let request_of_json j =
  match j with
  | Json.Obj _ -> of_tree request j
  | _ -> Error not_an_object

let speedup_of_json j = of_tree speedup j

let ( let* ) = Result.bind

let req_field name conv j =
  match Json.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
    match conv v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S has the wrong type" name))

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
