(** Blocking client for the scheduler daemon's wire protocol.

    One request, one response line, in order ({!Protocol}).  The replay
    entry point drives a whole {!Moldable_graph.Dag.t} through a live
    server and diffs the returned schedule against a local simulation of
    the identical configuration — the end-to-end witness that the daemon's
    incremental stepper is bit-identical to the batch run. *)

open Moldable_graph

type t

val connect_tcp :
  ?timeout:float -> host:string -> port:int -> unit -> (t, string) result
(** Connect with a bounded handshake ([timeout] seconds, default 10).
    [Error] carries the [Unix] failure (e.g. connection refused). *)

val connect_unix : ?timeout:float -> path:string -> unit -> (t, string) result

val close : t -> unit
(** Idempotent. *)

val request : t -> Moldable_obs.Json.t -> (Moldable_obs.Json.t, string) result
(** Send one JSON line, read one JSON response line. *)

val rpc : t -> Protocol.request -> (Moldable_obs.Json.t, string) result
(** {!request} of the encoded request; a [{"ok": false}] response is
    mapped to [Error "CODE: message"]. *)

val fetch_metrics : t -> (string, string) result
(** The server registry in OpenMetrics text exposition. *)

type replay_report = {
  n_tasks : int;
  server_makespan : float;
  local_makespan : float;
  identical : bool;
      (** Every placement (task, start, finish, processor set) and the
          makespan agree exactly between the server and the local run. *)
  mismatch : string option;  (** First difference, when not identical. *)
}

val replay :
  ?release_times:float array ->
  ?algorithm:Protocol.algorithm ->
  ?priority:string ->
  p:int ->
  t ->
  Dag.t ->
  (replay_report, string) result
(** Open a run on the server, submit every task of the graph in id order
    (with its predecessors and release time), drain, fetch the schedule,
    and compare against {!Moldable_core.Online_scheduler.run} with the same
    algorithm, priority and release times locally.  [Error] on transport or
    protocol failure (a schedule {e difference} is reported in the record,
    not as [Error]). *)
