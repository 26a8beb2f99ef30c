(** Prefix-minimum index over a bounded integer key space.

    Holds elements tagged with a key in [[1, k]] and answers "the least
    element (by [cmp]) among those with key <= key0" in O(log k + log bucket
    size): a segment tree whose leaves are per-key {!Pqueue} buckets and
    whose internal nodes cache the minimum of their subtree.

    The generic form of the online scheduler's ready queue, where the key is
    a task's processor allocation and the query key is the free processor
    count — "first task in priority order that fits".  The scheduler itself
    runs on {!Ranked_queue}, the unboxed specialization to [(key, tie, id)]
    entries; this closure-compared form is its differential reference in
    the tests.

    [cmp] must be a {e total} order: distinct elements never compare equal.
    (The scheduler's priority rules all carry a sequence-number tie-break.)
    [pop_prefix] relies on this to locate the minimum's leaf from the root. *)

type 'a t

val create : k:int -> cmp:('a -> 'a -> int) -> 'a t
(** Key space [[1, k]]; O(k) memory up-front.  Raises [Invalid_argument] if
    [k < 1]. *)

val push : 'a t -> key:int -> 'a -> unit
(** O(log k + log bucket).  Raises [Invalid_argument] if the key is outside
    [[1, k]]. *)

val peek_prefix : 'a t -> key:int -> 'a option
(** Least element among keys [<= key], or [None] if that range is empty.
    Keys above [k] are clamped to [k]; [key < 1] returns [None].  O(log k). *)

val pop_prefix : 'a t -> key:int -> 'a option
(** Remove and return what {!peek_prefix} would return.
    O(log k + log bucket). *)

val length : 'a t -> int
val is_empty : 'a t -> bool
