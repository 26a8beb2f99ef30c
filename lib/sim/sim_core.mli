(** The unified online simulation core.

    One event loop drives every discrete-event simulation in this
    repository: graph reveal on precedence satisfaction, deferred reveals on
    release times, batched simultaneous completions (ulp-tolerant, see
    {!Event_queue.pop_simultaneous}), greedy launch rounds against the
    policy, and per-attempt fault injection with retry accounting.
    Failure-free runs are the [never] failure model.

    The loop processes each scheduling instant in three phases so the
    policy always sees the full free count and ready set of the instant:
    (1) release the processors of every completion in the batch and
    classify it against the failure model, (2) reveal failed attempts and
    release-time reveals in batch order, then newly unblocked successors,
    (3) run a launch round until the policy declines or no processor is
    free.

    Every run is instrumented: see {!Metrics}. *)

open Moldable_util
open Moldable_model
open Moldable_graph

type policy = {
  name : string;
  on_ready : now:float -> Task.t -> unit;
      (** A task became available (first reveal, or re-reveal after a failed
          attempt); its parameters are now visible. *)
  next_launch : now:float -> free:int -> (int * int) option;
      (** [Some (task_id, nprocs)] to start that task immediately, or
          [None] to wait.  Called again after each launch with the updated
          free count. *)
}

exception Policy_error of string
(** The policy launched a task that is not ready, exceeded the free
    processor count, or stalled with ready tasks and no running work. *)

type failure_model = {
  model_name : string;
  fails : Rng.t -> task_id:int -> attempt:int -> bool;
      (** Decides whether the [attempt]-th execution (1-based) of the task
          fails.  Consulted once per completed attempt, in batch order, so
          runs with a fixed seed are reproducible. *)
}

val never : failure_model
(** No attempt ever fails (and the RNG is never consumed). *)

val bernoulli : q:float -> failure_model
(** Each attempt fails independently with probability [q] in [\[0, 1)]. *)

val at_most : k:int -> failure_model
(** Deterministic: the first [k] attempts of every task fail, the next
    succeeds — handy for exact makespan assertions in tests. *)

type event = Recording.event =
  | Ready of int        (** Task revealed (or re-revealed after a failure). *)
  | Start of int * int  (** Task id, allocation. *)
  | Finish of int       (** Successful completion. *)
  | Failed of int * int (** Task id, 1-based attempt that failed. *)

type attempt = Recording.attempt = {
  task_id : int;
  attempt : int;      (** 1-based attempt number. *)
  start : float;
  finish : float;     (** The batch instant at which the attempt ended. *)
  nprocs : int;
  procs : int array;
  failed : bool;
}

type result = {
  schedule : Schedule.t;
      (** One placement per task: its successful attempt. *)
  recording : Recording.t;
      (** The run's trace and depth samples as flat arrays the result owns
          (never the arena's); read it through the views below and
          {!Metrics}. *)
  makespan : float;
  n_attempts : int;
  n_failures : int;
  metrics : Metrics.t;  (** Its views replay the same [recording]. *)
}

(** {1 Result views}

    Built from the result's {!Recording} on every call; empty for a lean
    run. *)

val trace : result -> (float * event) list
(** Chronological. *)

val attempts : result -> attempt list
(** Chronological (by start, then task id and attempt). *)

val n_events : result -> int

val events_from : result -> int -> (float * event) list
(** [events_from r k] is the trace suffix from event index [k], in
    O(events returned) — the drained-session form of
    {!Stepper.events_from}. *)

(** Reusable per-run storage: the event heap, per-task bookkeeping arrays,
    recording buffers and the platform (with its recycled segment pool),
    all sized to the (p, n) high-water mark of the runs that used the
    arena.  Passing the same arena to successive {!run}s makes the steady
    state of a sweep allocation-free outside the result values themselves.
    Once a run is drained or abandoned, its arena holds no reference to
    the run's tasks or processor blocks, so a long-lived arena never keeps
    a finished run alive.

    An arena is single-run at a time: if a run is asked to use an arena
    that is already in use (reentrancy through a policy callback, or
    sharing across domains), it silently falls back to a private fresh
    arena, so correctness never depends on arena discipline. *)
module Arena : sig
  type t

  val create : unit -> t

  val for_current_domain : unit -> t
  (** The calling domain's own arena (one per domain, created on first
      use via domain-local storage): what {!run} uses when given no
      arena, and the natural choice inside {!Moldable_util.Pool} workers,
      which are long-lived. *)
end

(** {1 Incremental stepper}

    The re-entrant form of the event loop, for long-running online
    consumers (the {!Moldable_service} daemon): tasks can be admitted
    {e after} the virtual clock has started, and the clock advances in
    bounded steps instead of running to completion.  {!run} is a thin
    loop over this module — create, admit every task of the DAG in id
    order, drain — so a stepper driven with the same admissions produces
    {e bit-identical} results to the batch run.

    The equivalence extends to late admission: a task admitted at any
    point strictly before the scheduling instant that completes its last
    outstanding dependency is revealed through the same unlock path, at
    the same position, as if it had been admitted up front (the
    differential suite exercises exactly this).  A dependency-free task
    admitted after the clock started is revealed at the current instant on
    the next [advance]/[drain]. *)
module Stepper : sig
  type t

  val create :
    ?seed:int ->
    ?max_attempts:int ->
    ?failures:failure_model ->
    ?tracer:Tracer.t ->
    ?registry:Moldable_obs.Registry.t ->
    ?arena:Arena.t ->
    ?lean:bool ->
    ?capacity:int ->
    p:int ->
    policy ->
    t
  (** All options have the same meaning and defaults as on {!run}.
      [capacity] pre-sizes the per-task storage (the stepper grows on
      demand past it).  The stepper holds the arena until {!drain} or
      {!abandon}. *)

  val admit_task : t -> ?release_time:float -> ?deps:int list -> Task.t -> int
  (** Admit a task and return its id, which is the number of previously
      admitted tasks — [task.id] must equal it.  [deps] (default none) are
      the ids of its direct predecessors, strictly increasing; forward
      references to not-yet-admitted ids are permitted (the run then
      stalls if they are never admitted), and dependencies on
      already-completed tasks are immediately satisfied.  [release_time]
      (default 0, finite, non-negative) delays the task's reveal as in
      {!run}.

      @raise Invalid_argument on a closed stepper, mismatched task id,
      ill-formed deps or release time. *)

  val advance : t -> until:float -> int
  (** Process every scheduling instant with an event stamp [<= until] and
      return how many were processed; afterwards {!now} is at least
      [until] (a batch's ulp-tolerant instant may exceed its earliest
      stamp, and so [until], by the batching epsilon).  The first call
      (or {!drain}) performs the time-0 source flush.  [until] may be
      [infinity] to process everything currently queued.

      @raise Policy_error on policy misbehaviour.
      @raise Invalid_argument on a closed stepper or NaN [until]. *)

  val drain : t -> result
  (** Run to completion of every admitted task and build the {!result}
      (identical to what {!run} returns for the same admissions).  The
      stepper is closed afterwards — even on failure — and the arena is
      released.

      @raise Policy_error if the policy stalls or misbehaves, including
      when an unadmitted forward dependency leaves tasks unrevealable.
      @raise Failure when a task would exceed [max_attempts]. *)

  val abandon : t -> unit
  (** Close the stepper without draining and release the arena; safe to
      call at any point, idempotent.  Used by servers tearing down a
      session mid-run. *)

  (** {2 Introspection}

      Cheap queries for serving live status; none of them affect the
      simulation. *)

  val now : t -> float
  (** Current virtual time: the latest processed scheduling instant or
      [advance] horizon. *)

  val started : t -> bool
  val closed : t -> bool

  val admitted : t -> int
  (** Tasks admitted so far (also the id the next admission gets). *)

  val completed : t -> int
  val ready : t -> int
  (** Tasks currently revealed and waiting for processors. *)

  val running : t -> int
  val free_procs : t -> int
  val makespan_so_far : t -> float
  (** Latest completion instant processed so far (0 before the first). *)

  val next_event_time : t -> float option
  (** Stamp of the earliest queued event — the next instant [advance]
      would process ([None] when nothing is queued). *)

  val n_events : t -> int
  (** Trace events recorded so far (0 in lean mode). *)

  val events_from : t -> int -> (float * event) list
  (** [events_from t k] is the chronological trace suffix starting at
      event index [k]: the incremental window a subscriber polls with
      [k = n_events] from the previous call.  Always empty in lean mode. *)
end

val run :
  ?release_times:float array ->
  ?seed:int ->
  ?max_attempts:int ->
  ?failures:failure_model ->
  ?tracer:Tracer.t ->
  ?registry:Moldable_obs.Registry.t ->
  ?arena:Arena.t ->
  ?lean:bool ->
  p:int ->
  policy ->
  Dag.t ->
  result
(** Simulates the policy on the graph with [p] processors.

    [release_times] (indexed by task id, non-negative, length [Dag.n])
    delays the reveal of each task to the maximum of its release time and
    the completion of its last predecessor.  [seed] (default 0) seeds the
    failure RNG.  [arena] supplies reusable per-run storage (see {!Arena});
    by default a run reuses {!Arena.for_current_domain}, so successive
    batch runs on one domain allocate their per-run arrays once, and a run
    nested in another run's policy callback gets a private arena.  A full run records its
    event trace, the processor blocks of failed attempts and one
    ready-depth sample per scheduling instant into the arena, and the
    result owns flat copies of them (see {!Recording}); the list views are
    built only when called.  [lean:true] (default [false]) records nothing
    beyond the schedule and the run counters: every view of the result is
    empty, while [schedule], [makespan], [n_attempts] and [n_failures] are
    exactly those of the full run.  A live [tracer] turns [lean] off.
    [max_attempts] (default unlimited) bounds the attempts
    per task; the bound is checked {e before} any processor is acquired or
    event queued, and the error names the task, its attempt count and the
    failure model.  [failures] defaults to {!never}.

    [tracer] (default {!Tracer.null}, i.e. off) records instant markers for
    reveals/deferred releases/stalls and self-profile timers
    ([event-loop], [launch-round]).  Its execution spans are the result's
    {!attempts}, so a run with a live tracer always records in full, even
    under [lean:true].  Tracing never affects the schedule, and a
    [Tracer.null] run performs no tracing work beyond one branch per
    hook.

    [registry] (default {!Moldable_obs.Registry.null}, i.e. off) receives
    the run's counters as process-wide telemetry — [moldable_sim_events],
    [moldable_sim_batches], [moldable_sim_launches], [moldable_sim_retries],
    [moldable_sim_stall_checks] and [moldable_sim_runs] — published once at
    the end of the run (totals identical to per-event increments), so
    attaching a registry never touches the hot loop and never affects the
    schedule.

    @raise Policy_error on policy misbehaviour.
    @raise Invalid_argument on ill-formed release times or [max_attempts].
    @raise Failure when a task would exceed [max_attempts]. *)
