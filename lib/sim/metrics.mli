(** Run observability for the simulation core.

    Every {!Sim_core} run produces a [Metrics.t] alongside its schedule:
    per-run counters plus three views of the run's {!Recording} — the
    busy-processor timeline, the ready-queue depth at every scheduling
    instant, and per-task wait/service statistics.  The run itself only
    bumps the counters and records one depth sample per event batch; the
    views replay the recorded trace when called.  Everything exports to
    JSON or CSV for offline analysis next to the [paper_artifacts/]
    outputs.

    Invariants (asserted by the test suite):
    - the integral of the utilization timeline equals the total busy area
      (sum over attempts of [nprocs * duration]);
    - [launches = n + retries] — every task succeeds exactly once, every
      failed attempt is relaunched;
    - per-task waits are non-negative. *)

type counters = {
  mutable events : int;        (** Simulation events dequeued. *)
  mutable batches : int;       (** Scheduling instants processed. *)
  mutable launches : int;      (** Task attempts started. *)
  mutable retries : int;       (** Failed attempts (re-executions needed). *)
  mutable stall_checks : int;  (** [next_launch] calls answered [None]. *)
}

val make_counters : unit -> counters
(** Fresh all-zero counters (mutated in place by the simulation core). *)

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

type t = {
  p : int;
  counters : counters;
  recording : Recording.t;
      (** The run's recording, which the views below replay. *)
}

val make : p:int -> counters:counters -> Recording.t -> t

(** {1 Views}

    Built from the recording's arrays on every call: O(events) each, with
    no cache.  A lean run's views are empty. *)

val utilization : t -> segment list
(** Chronological busy timeline. *)

val queue_depth : t -> (float * int) list
(** Ready-set size after each scheduling instant. *)

val tasks : t -> task_stat array
(** Indexed by task id. *)

val busy_area : t -> float
(** Integral of the utilization timeline ([sum busy * (t1 - t0)]). *)

val span : t -> float
(** Latest endpoint of the timeline (the instrumented makespan). *)

val average_utilization : t -> float
(** [busy_area / (p * span)], 0 for an empty run. *)

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
