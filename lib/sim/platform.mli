(** The platform of [P] identical processors.

    Tracks which processor ids are free and hands out the lowest-numbered
    free ids on acquisition, which produces compact Gantt charts and lets the
    validator check that no processor runs two tasks at once.

    The free flags are packed 62 to a machine word: processor [i] is bit
    [i mod 62] of word [i / 62], so that every mask is a non-negative int.
    A processor block is a run of [(word index, mask)] pairs, stored flat
    as two ints per pair, one pair per word that holds a processor of the
    block, in ascending word order.  This module alone reads and writes
    that layout.  {!acquire_pairs}, {!release_pairs} and {!claim_pairs}
    work a word at a time, so their cost grows with the words a block
    touches and not with its processors; {!acquire} and {!release} are the
    same operations over [int array]s of ids, expanded one processor at a
    time. *)

type t

val create : int -> t
(** [create p] makes a platform with processors [0 .. p-1].
    @raise Invalid_argument if [p < 1]. *)

val p : t -> int
val free_count : t -> int

val acquire_pairs : t -> int -> Moldable_util.Growbuf.I.t -> unit
(** [acquire_pairs t n buf] marks the [n] lowest free processors busy and
    appends their block to [buf]: the same processors, in the same order,
    as {!acquire}.  O(words scanned).
    @raise Invalid_argument if [n < 1] or fewer than [n] are free. *)

val release_pairs : t -> int array -> off:int -> len:int -> unit
(** [release_pairs t pairs ~off ~len] marks free again the block of the
    [len] pairs of [pairs] from index [off].  Each mask is checked against
    the free flags before it is ORed back.
    @raise Invalid_argument, with {!release}'s messages, if a processor is
    out of range or not busy. *)

val claim_pairs : t -> int array -> off:int -> len:int -> bool
(** [claim_pairs t pairs ~off ~len] marks busy the block of the [len]
    pairs of [pairs] from index [off] if every processor of it is free, and
    says whether it did; a processor outside the platform is never free. *)

val acquire : t -> int -> int array
(** [acquire t n] marks [n] processors busy and returns their ids
    (ascending, the lowest free ones) in a fresh array.
    @raise Invalid_argument if [n < 1] or fewer than [n] are free. *)

val release : t -> int array -> unit
(** Marks the given processors free again, one id at a time in array
    order.
    @raise Invalid_argument if an id is out of range or not busy; the ids
    before it in the array are then already free. *)

val reset : t -> unit
(** Marks every processor free (forgetting any outstanding acquisitions),
    for arena reuse between runs. *)

(** {1 Blocks} *)

val ids_of_pairs : int array -> off:int -> len:int -> int array
(** The ascending ids of the [len] pairs from index [off]. *)

val push_pairs : Moldable_util.Growbuf.I.t -> int array -> unit
(** Appends the block of the given ids, which must be strictly ascending
    and non-negative. *)
