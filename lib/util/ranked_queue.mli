(** The online scheduler's ready queue: entries [(alloc, key, tie, id)]
    answering "the first entry, in rank order, whose [alloc] is at most
    [free]" in O(log k).

    A segment tree over [k] per-allocation binary heaps.  Every heap is
    three flat arrays ([float array] keys, unboxed; [int array] ties and
    ids) and every comparison is compiled inline, with no comparator
    closure and no item record, so a push or a pop allocates nothing once
    the heaps have reached their high-water capacity.

    {b Order.}  A higher [key] comes first under [Float.compare], then a
    lower [tie].  [Float.compare] is total on NaN (below every other
    float, equal to itself), so NaN keys come last and the order stays
    total; [-.infinity] sorts just above NaN.  Entries with equal [key] and
    equal [tie] are served in an unspecified order: callers that need a
    deterministic order give every live entry a distinct [tie] (an
    arrival number or a task id). *)

type t

val create : k:int -> t
(** Allocations [[1, k]]; O(k) memory up-front.
    @raise Invalid_argument if [k < 1]. *)

val push : t -> alloc:int -> key:float -> tie:int -> id:int -> unit
(** O(log k + log bucket).
    @raise Invalid_argument if [alloc] is outside [[1, k]]. *)

val fit : t -> free:int -> int
(** The allocation whose bucket holds the first entry among allocations
    [<= free], or [0] when none is waiting.  [free] above [k] is clamped
    to [k]; [free < 1] returns [0].  O(1) when the first entry of the
    whole queue fits, O(log k) otherwise. *)

val pop : t -> alloc:int -> int
(** Remove the first entry of bucket [alloc] and return its id:
    [pop t ~alloc:(fit t ~free)] is a launch.  O(log k + log bucket).
    @raise Invalid_argument if that bucket is empty or out of range. *)

val length : t -> int
