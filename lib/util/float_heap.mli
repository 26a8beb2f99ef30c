(** Flat array-backed 4-ary min-heap over [(float key, insertion seq)] with
    an [int] payload word per entry.

    Built for the simulator's event queue: the three parallel arrays
    ([float array] keys — unboxed, [int array] sequence numbers, [int
    array] payloads) live in place and double on demand, so a push or pop
    allocates nothing once the heap has reached its high-water capacity,
    and the ordering is compiled float/int comparisons rather than a
    comparator closure.  Entries are totally ordered by [(key, seq)]: ties
    in the key are broken by insertion order (FIFO), which keeps event
    processing deterministic.  Keys must be finite — {!push} rejects NaN
    and infinities, so the internal comparisons never see a NaN. *)

type t

val create : ?capacity:int -> unit -> t
(** Empty heap.  [capacity] (default 64) pre-sizes the arrays; the heap
    grows past it transparently. *)

val clear : t -> unit
(** Empties the heap and resets the insertion counter.  Keeps the arrays,
    so a cleared heap re-fills without allocating. *)

val is_empty : t -> bool

val push : t -> key:float -> int -> unit
(** @raise Invalid_argument if [key] is not finite. *)

val min_key : t -> float
(** Smallest key. @raise Invalid_argument on an empty heap. *)

val min_payload : t -> int
(** Payload of the minimum entry. @raise Invalid_argument on empty. *)

val drop_min : t -> unit
(** Removes the minimum entry. @raise Invalid_argument on empty. *)
