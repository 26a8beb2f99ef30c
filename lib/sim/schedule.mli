(** Immutable record of a complete schedule: where and when every task ran.

    Built through a mutable {!builder} by hand (the constructive offline
    schedules of the lower-bound proofs, tests) or in one piece by the
    simulation core ({!of_blocks}), then queried.

    The representation is a struct of arrays indexed by task id: start,
    finish and processor count, and each task's processor block as a run
    of [(word index, mask)] pairs (the {!Platform} layout) at an offset of
    one shared pair array.  No per-task record or id array is kept; the
    {!placement} of a task is built, its ids expanded from its block, when
    it is asked for. *)

type placement = {
  task_id : int;
  start : float;
  finish : float;
  nprocs : int;
  procs : int array; (** Ascending processor ids; length [nprocs]. *)
}

type t = private {
  p : int;
  starts : float array;
  finishes : float array;
  counts : int array;  (** Processors of each task. *)
  offsets : int array;
      (** Index in [pairs] of the first word index of each task's block. *)
  lengths : int array;  (** Pairs in each task's block. *)
  pairs : int array;
      (** Blocks, two ints per pair; it may hold pairs no task refers to
          (the blocks of failed attempts). *)
}
(** The arrays belong to the schedule: read them, never write them. *)

(** {1 Building} *)

type builder

val builder : p:int -> n:int -> builder
(** [builder ~p ~n] prepares a schedule of [n] tasks on [p] processors. *)

val add : builder -> placement -> unit
(** @raise Invalid_argument on a duplicate task id, an out-of-range id, a
    negative-duration placement, or an ill-formed processor set. *)

val finalize : builder -> t
(** @raise Invalid_argument if some task has no placement. *)

val of_blocks :
  p:int ->
  starts:float array ->
  finishes:float array ->
  counts:int array ->
  offsets:int array ->
  lengths:int array ->
  pairs:int array ->
  t
(** The schedule of the given arrays, which it takes ownership of and
    does not check: every task's block must be well formed and hold
    [counts] processors below [p]. *)

(** {1 Queries} *)

val p : t -> int
val n : t -> int
val makespan : t -> float

val procs : t -> int -> int array
(** Task [i]'s ascending processor ids, in a fresh array. *)

val placement : t -> int -> placement
(** Allocates the record and its [procs] array on every call. *)

val placements : t -> placement list
(** Sorted by start time (ties by task id). *)

val utilization_steps : t -> (float * float * int) list
(** Step function of processor usage: [(t0, t1, busy)] segments covering
    [\[0, makespan\]] with constant busy count, in time order.  Segments of
    zero width are omitted. *)

val busy_area : t -> float
(** Integral of the busy count over time = sum of [nprocs * duration]. *)

val average_utilization : t -> float
(** [busy_area / (P * makespan)]; [0.] for an empty schedule. *)
