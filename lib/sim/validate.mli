(** Feasibility checker for schedules.

    Every schedule produced anywhere in this repository — by the online
    engine, by the hand-built offline schedules of the lower-bound proofs, or
    by tests — is passed through [check], which verifies, against the task
    graph it claims to schedule:

    - each task runs exactly once, for exactly [t_j(p_j)] time units
      (non-preemptive, no restarts);
    - precedence constraints: a task starts no earlier than the completion of
      each of its predecessors;
    - capacity: no processor id is used by two tasks simultaneously (which
      implies at most [P] processors are ever busy);
    - allocations are integers in [\[1, P\]] with well-formed processor sets.
*)

open Moldable_graph

val check :
  ?pool:Moldable_util.Pool.t -> dag:Dag.t -> Schedule.t ->
  (unit, string list) result
(** All violations found, or [Ok ()].  [pool] (default sequential) fans the
    per-task duration checks out over its domains; the error list is
    identical at any job count. *)

val check_exn : ?pool:Moldable_util.Pool.t -> dag:Dag.t -> Schedule.t -> unit
(** @raise Failure with the concatenated violations. *)

val check_attempts :
  dag:Dag.t -> p:int -> Sim_core.attempt list -> (unit, string list) result
(** The same checks over every attempt of a failure-prone run (the
    [attempts] of a full-mode {!Sim_core.result}): a placement is a single
    successful attempt, so on a run without failures this agrees with
    {!check}.  Additionally, each task's attempts are numbered
    1, 2, ..., every attempt but the last failed and the last succeeded,
    and allocations lie in [\[1, p\]].  Precedence holds against the
    {e successful} completion of predecessors; a predecessor that never
    succeeded is itself a violation for every downstream attempt. *)

val check_attempts_exn : dag:Dag.t -> p:int -> Sim_core.attempt list -> unit
(** @raise Failure with the concatenated violations. *)

val respects_allocation_bound : dag:Dag.t -> Schedule.t -> bool
(** True when every allocation is at most the task's [p_max] (Equation (5)) —
    a property of reasonable algorithms (Section 3.2), not of feasibility. *)
