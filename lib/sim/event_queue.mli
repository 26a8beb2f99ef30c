(** Time-ordered event queue for the discrete-event engine.

    Events are totally ordered by [(time, sequence number)]: ties in time are
    broken by insertion order, which keeps the simulation deterministic.

    The queue is a {!Moldable_util.Float_heap} — flat parallel arrays of
    unboxed time stamps, sequence numbers and [int] payload words — so
    pushes and pops allocate nothing once the heap has reached its
    high-water size.  The engine encodes its event kinds into the payload
    word (tag bit + task id) and keeps the per-event side data (start
    stamps, processor blocks) in per-task arrays; see {!Sim_core}. *)

type t

val create : ?capacity:int -> unit -> t
val clear : t -> unit
(** Empties the queue (keeping its arrays) and resets the tie-break
    sequence, so a cleared queue re-fills without allocating. *)

val add : t -> time:float -> int -> unit
(** Requires a finite, non-NaN [time]. *)

val next_time : t -> float
(** Time stamp of the earliest event, [infinity] when the queue is empty
    (every queued stamp is finite). *)

val batch_eps : float
(** The relative tolerance {!pop_batch} batches under ([1e-12]).
    Exposed so differential checkers can replay the batching decision with
    the exact same constant. *)

(** {2 Batches}

    The engine treats simultaneous completions as one scheduling instant,
    as Algorithm 1 does, so the queue pops a batch at a time into a
    reusable internal buffer: no list and no pair is allocated.  The
    buffer is valid until the next [pop_batch] call. *)

val pop_batch : t -> int
(** Pops {e every} event whose time stamp equals the earliest one up to a
    relative epsilon of {!batch_eps} (keyed off the earliest stamp, so the
    batch cannot drift), in [(time, insertion)] order, into the internal
    buffer and returns its length — [0] when the queue is empty.  The
    tolerance absorbs last-ulp disagreement between finish times computed
    along different float paths. *)

val batch_time : t -> float
(** The latest stamp of the last popped batch: the instant the caller acts
    at, which never precedes any stamp inside the batch (a task started
    then cannot overlap a completion recorded one ulp later). *)

val batch_stamp : t -> int -> float
(** The [i]-th batched event's own time stamp (events keep their exact
    stamps; the batch instant is their maximum). *)

val batch_payload : t -> int -> int
