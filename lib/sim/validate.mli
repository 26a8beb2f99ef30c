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

    Violations are reported in a fixed order: durations by execution (a
    placement, or an attempt in list order), then precedence by edge in
    lexicographic order, then overlaps in the order of a time sweep.

    {!check} sweeps a schedule's processor blocks a word of 62 processors
    at a time, and falls back to a sweep one processor at a time only to
    name the conflicts it found: a check of [m] placements on [P]
    processors over a graph of [n] tasks without a conflict takes
    O(n + e + m log m + the blocks' words) time, for [e] edges, and
    O(n + m + P / 62) memory; with one, O(sum of the placements' [nprocs])
    more time and O(P) more memory.  {!check_attempts} sweeps the
    attempts' ids one processor at a time. *)

open Moldable_graph

val check : dag:Dag.t -> Schedule.t -> (unit, string list) result
(** All violations found, or [Ok ()]. *)

val check_exn : dag:Dag.t -> Schedule.t -> unit
(** @raise Failure with the concatenated violations. *)

val check_attempts :
  dag:Dag.t -> p:int -> Metrics.attempt list -> (unit, string list) result
(** The same checks over every attempt of a failure-prone run
    ({!Metrics.attempts} of a full run): a placement is a single
    successful attempt, so on a run without failures this agrees with
    {!check}.  Additionally, each task's attempts are numbered
    1, 2, ..., every attempt but the last failed and the last succeeded,
    and allocations lie in [\[1, p\]].  Precedence holds against the
    {e successful} completion of predecessors; a predecessor that never
    succeeded is itself a violation for every downstream attempt. *)

val check_attempts_exn : dag:Dag.t -> p:int -> Metrics.attempt list -> unit
(** @raise Failure with the concatenated violations. *)
