(** A finished run's recording, held as flat arrays.

    {!Sim_core} records a full run's event trace and its ready-queue depth
    samples into the arena's {!Moldable_util.Growbuf}s.  [drain] copies them
    into the unboxed arrays of a [Recording.t], which the result owns: a
    recording never aliases arena storage, so later runs on the same arena
    cannot change it.  Nothing is converted at the end of a run.  The list
    views ({!trace}, {!attempts}, and the {!Metrics} timeline, queue-depth
    and task views) are built from the arrays each time they are called,
    so consumers that want lists pay for them where they use them.

    The trace is the single source of every per-attempt and per-task view:
    an attempt is the span from a [Start] to the next [Finish]/[Failed] of
    its task, whose processor block is the task's schedule placement (a
    success) or the recorded block of the failure. *)

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
  nprocs : int;
  procs : int array;
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

val decode : int -> int -> event
(** [decode code arg] is the event a packed pair stands for. *)

(** {1 The record} *)

type t = private {
  lean : bool;  (** A lean run: only the schedule, every array empty. *)
  schedule : Schedule.t;
  times : float array;  (** Event instants, chronological. *)
  codes : int array;
  args : int array;
  failed_procs : int array array;
      (** Processor block of every failed attempt, in trace order. *)
  depth_times : float array;  (** Scheduling instants of the depth samples. *)
  depths : int array;  (** Ready-set size after each instant. *)
}

val make :
  schedule:Schedule.t ->
  times:float array ->
  codes:int array ->
  args:int array ->
  failed_procs:int array array ->
  depth_times:float array ->
  depths:int array ->
  t
(** The recording of a full run; takes ownership of the arrays. *)

val lean : Schedule.t -> t
(** The recording of a lean run: no events, no samples. *)

(** {1 Views} *)

val n_tasks : t -> int
(** Tasks the views cover: the schedule's, 0 for a lean run. *)

val n_events : t -> int

val events_from : t -> int -> (float * event) list
(** [events_from r k] is the chronological trace suffix from event index
    [k] (all of it for [k <= 0]); O(events returned). *)

val trace : t -> (float * event) list
(** The whole chronological trace; empty for a lean run. *)

val attempts : t -> attempt list
(** Every attempt, sorted by start, then task id, then attempt; empty for
    a lean run. *)
