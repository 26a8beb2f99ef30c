(** The wire protocol of the scheduler daemon: line-delimited JSON.

    Each request is one JSON object on one line ([\n]-terminated); the
    server answers every request with exactly one JSON object on one line,
    in order.  A successful response is [{"ok": true, ...}]; a failed one
    is [{"ok": false, "error": CODE, "message": ...}] with [CODE] one of
    {!error_code} (the message is human-readable and unstable, the code is
    contract).  Because framing is newline-based, a malformed line yields a
    [parse_error] response and the session continues at the next line.

    The protocol drives one simulation per session phase: [open] creates a
    stepper ({!Moldable_sim.Sim_core.Stepper}) for a processor count and
    algorithm, [submit] admits tasks (with precedence and release times)
    while the virtual clock is live, [advance] steps the clock, [drain]
    runs to completion, and [schedule]/[makespan] read the finished run
    back.  After a drain the session can [open] again.  The full schemas
    are documented in EXPERIMENTS.md. *)

open Moldable_model
open Moldable_sim
open Moldable_core

type algorithm = [ `Original | `Improved ]

type open_spec = {
  o_p : int;  (** Processor count, in [\[1, max_p\]]. *)
  o_algorithm : algorithm;  (** Default [`Original]. *)
  o_priority : string;  (** A {!Moldable_core.Priority} name; default fifo. *)
  o_seed : int;  (** Failure-RNG seed, default 0. *)
  o_max_attempts : int option;
  o_failures : [ `Never | `Bernoulli of float | `At_most of int ];
}

type submit_spec = {
  s_label : string;  (** Default ["t<id>"]. *)
  s_speedup : Speedup.t;  (** Never [Arbitrary] (not serializable). *)
  s_deps : int list;  (** Strictly increasing predecessor ids. *)
  s_release : float;  (** Default 0. *)
}

type request =
  | Ping
  | Open of open_spec
  | Submit of submit_spec
  | Advance of float  (** Horizon; [infinity] when the field is absent. *)
  | Status
  | Events of int  (** Trace window starting at this event index. *)
  | Subscribe of bool
      (** Toggle inclusion of the new-events window in every subsequent
          [advance]/[drain] response. *)
  | Drain
  | Schedule
  | Makespan
  | Metrics  (** OpenMetrics exposition of the server registry. *)
  | Close

type error_code =
  | Parse_error  (** The line is not a JSON document. *)
  | Bad_request  (** Well-formed JSON, invalid request or arguments. *)
  | Limit  (** A session limit was exceeded; the server closes. *)
  | Conflict  (** Request illegal in the current session phase. *)
  | Draining  (** The server is shutting down. *)
  | Internal  (** Simulation failure (policy error, attempt limit). *)

val error_code_name : error_code -> string

(** {1 Building} *)

val ok : (string * Moldable_obs.Json.t) list -> Moldable_obs.Json.t
(** [{"ok": true}] extended with the fields. *)

val error : error_code -> string -> Moldable_obs.Json.t

val request_to_json : request -> (Moldable_obs.Json.t, string) result
(** [Error] only for a [Submit] of an [Arbitrary] speedup. *)

val speedup_to_json : Speedup.t -> (Moldable_obs.Json.t, string) result
val event_to_json : float -> Metrics.event -> Moldable_obs.Json.t
val placement_to_json : Schedule.placement -> Moldable_obs.Json.t

(** {1 Parsing} *)

val max_p : int
(** Largest platform size an [open] accepts, [2^20]: a session allocates
    O(p) state when it opens, so a larger [p] is a [bad_request]. *)

type scratch
(** The typed field table a request is read into: one slot per field name
    a request can carry.  It is reused from one request to the next, so
    it belongs to one session (one caller at a time). *)

val scratch : unit -> scratch

val decode :
  scratch -> ?max_bytes:int -> string -> (request, error_code * string) result
(** [decode t ~max_bytes line] reads one request line in one pass, without
    building a {!Moldable_obs.Json.t} tree: field values go straight into
    [t] (numbers unboxed, keys matched where they lie in the line), and
    the request is built from [t] once the line has been read to its end.

    Its result is the one [Json.of_string ~max_bytes line] followed by
    {!request_of_json} gives, on every input: [Parse_error] with the
    parser's message and byte offset when the line is not one JSON
    document (or is longer than [max_bytes]); [Bad_request] with
    {!request_of_json}'s message when it is a document but not a valid
    request.  So the first binding of a duplicated key wins, and a key the
    request does not use is still checked in full (string escapes,
    numbers, nesting depth) before it is skipped. *)

val request_of_json : Moldable_obs.Json.t -> (request, string) result
(** The request a parsed document holds.  It fills the same field table as
    {!decode} (first binding of a key wins), so both share every check and
    every message. *)

val speedup_of_json : Moldable_obs.Json.t -> (Speedup.t, string) result
(** The [model] field and its parameters, as a [submit] carries them,
    checked with {!Moldable_model.Speedup.validate}. *)

val placement_of_json :
  Moldable_obs.Json.t -> (Schedule.placement, string) result

val priority_of_name : string -> Priority.t option
(** Look a priority rule up by its [Priority.name] (e.g. ["fifo"],
    ["longest-first"]). *)

val allocator_of_algorithm : algorithm -> Allocator.t
val failure_model_of_spec :
  [ `Never | `Bernoulli of float | `At_most of int ] ->
  (Sim_core.failure_model, string) result
