(** The one record of a finished {!Sim_core} run.

    A [Metrics.t] holds the run's schedule, its counters and, for a full
    run, its recording: the event trace and the ready-queue depth samples
    as flat arrays.  {!Sim_core} records them into the arena's
    {!Moldable_util.Growbuf}s and copies them here at drain, so a record
    never aliases arena storage and later runs on the same arena cannot
    change it.  The run itself only bumps the counters and appends to the
    buffers; every view below (the trace, the attempts, the busy timeline,
    the queue depth and the per-task statistics) is built from the arrays
    each time it is called, so consumers that want lists pay for them
    where they use them.  Everything exports to JSON or CSV for offline
    analysis next to the [paper_artifacts/] outputs.

    The trace is the single source of every per-attempt and per-task view:
    an attempt is the span from a [Start] to the next [Finish]/[Failed] of
    its task, whose processor block is the task's schedule placement (a
    success) or the recorded block of the failure.

    Invariants (asserted by the test suite):
    - the integral of the utilization timeline equals the total busy area
      (sum over attempts of [nprocs * duration]);
    - [launches = n + retries] — every task succeeds exactly once, every
      failed attempt is relaunched — and [launches] is the number of
      attempts;
    - per-task waits are non-negative. *)

type event =
  | Ready of int        (** Task revealed (or re-revealed after a failure). *)
  | Start of int * int  (** Task id, allocation. *)
  | Finish of int       (** Successful completion. *)
  | Failed of int * int (** Task id, 1-based attempt that failed. *)

type attempt = {
  task_id : int;
  attempt : int;      (** 1-based attempt number. *)
  start : float;
  finish : float;     (** The batch instant at which the attempt ended. *)
  nprocs : int;       (** The allocation its [Start] recorded. *)
  procs : int array;  (** Its block's ids, expanded on every view. *)
  failed : bool;
}

(** {1 Packed events}

    An event is stored as a [code] (kind in the low 2 bits, task id above
    them) and an [arg] (the allocation of a [Start], the attempt of a
    [Failed], 0 otherwise). *)

val kind_ready : int
val kind_start : int
val kind_finish : int
val kind_failed : int

val decode_events :
  len:int -> time:(int -> float) -> code:(int -> int) -> arg:(int -> int) ->
  int -> (float * event) list
(** [decode_events ~len ~time ~code ~arg k] is the chronological list of
    the packed events [k .. len - 1] (all of them for [k <= 0]), event [i]
    being at instant [time i] with the pair [(code i, arg i)]: the one
    decoder behind {!events_from} and {!Sim_core.Stepper.events_from}. *)

(** {1 The record} *)

type counters = {
  mutable events : int;        (** Simulation events dequeued. *)
  mutable batches : int;       (** Scheduling instants processed. *)
  mutable launches : int;      (** Task attempts started. *)
  mutable retries : int;       (** Failed attempts (re-executions needed). *)
  mutable stall_checks : int;  (** [next_launch] calls answered [None]. *)
}

val make_counters : unit -> counters
(** Fresh all-zero counters (mutated in place by the simulation core). *)

type t = private {
  schedule : Schedule.t;
  counters : counters;
  lean : bool;  (** A lean run: only schedule and counters, arrays empty. *)
  times : float array;  (** Event instants, chronological. *)
  codes : int array;
  args : int array;
  blocks : int array;
      (** Processor blocks as [(word index, mask)] pairs (the {!Platform}
          layout); a run shares its schedule's [pairs]. *)
  failed : int array;
      (** Offset in [blocks] and pair count of every failed attempt's
          block, two ints per attempt, in trace order. *)
  depth_times : float array;  (** Scheduling instants of the depth samples. *)
  depths : int array;  (** Ready-set size after each instant. *)
}

val make :
  schedule:Schedule.t ->
  counters:counters ->
  times:float array ->
  codes:int array ->
  args:int array ->
  blocks:int array ->
  failed:int array ->
  depth_times:float array ->
  depths:int array ->
  t
(** The record of a full run; takes ownership of the arrays. *)

val lean : schedule:Schedule.t -> counters:counters -> t
(** The record of a lean run: no events, no samples. *)

(** {1 Views}

    Built from the arrays on every call: O(events) each, with no cache.  A
    lean run's views are empty. *)

val n_events : t -> int

val events_from : t -> int -> (float * event) list
(** [events_from t k] is the chronological trace suffix from event index
    [k] (all of it for [k <= 0]); O(events returned).  The drained-run
    form of {!Sim_core.Stepper.events_from}. *)

val attempts : t -> attempt list
(** Every attempt, sorted by start, then task id, then attempt. *)

type segment = { t0 : float; t1 : float; busy : int }
(** Maximal interval during which exactly [busy] processors were executing
    attempts. *)

type task_stat = {
  task_id : int;
  ready : float;    (** First time the task became available. *)
  start : float;    (** Start of the first attempt. *)
  finish : float;   (** Successful completion. *)
  wait : float;     (** [start - ready]; non-negative. *)
  service : float;  (** Total execution time across all attempts. *)
  attempts : int;   (** Attempts executed (1 when nothing failed). *)
}

val utilization : t -> segment list
(** Chronological busy timeline. *)

val queue_depth : t -> (float * int) list
(** Ready-set size after each scheduling instant. *)

val tasks : t -> task_stat array
(** Indexed by task id. *)

val average_utilization : t -> float
(** [area / (p * span)], 0 for an empty run: [area] is the integral of the
    utilization timeline ([sum busy * (t1 - t0)]) and [span] its latest
    endpoint (the instrumented makespan). *)

val max_queue_depth : t -> int

val mean_wait : t -> float
(** Mean of the finite per-task waits; [0.] when the run is empty (or no
    wait is finite), never NaN. *)

val max_wait : t -> float
(** Maximum finite per-task wait; [0.] when the run is empty. *)

val to_json : t -> Moldable_obs.Json.t
(** The whole report as a JSON document (schema documented in
    EXPERIMENTS.md); render it with {!Moldable_obs.Json.to_string}, which
    prints non-finite floats as [null]. *)

val utilization_csv : t -> string
(** [t0,t1,busy] rows. *)

val queue_depth_csv : t -> string
(** [time,depth] rows. *)

val tasks_csv : t -> string
(** [task,ready,start,finish,wait,service,attempts] rows. *)

val pp : Format.formatter -> t -> unit
(** One-line human summary of counters and headline statistics. *)
