(** Ordering disciplines for the waiting queue of Algorithm 1.

    The paper inserts available tasks without priority consideration (FIFO)
    and notes that "in practice certain priority rules may work better".
    The rules listed here use only information visible online: the task's
    own parameters and its chosen allocation — never the graph.  The
    clairvoyant list schedulers of {!Offline} rank by a graph-derived key
    with the task id as tie ({!Online_scheduler.ranked}), on the same
    ready queue. *)

open Moldable_model

type item = {
  task : Task.t;
  alloc : int;     (** Final allocation chosen at reveal time. *)
  t_min : float;   (** Minimum execution time of the task. *)
  seq : int;       (** Arrival number, for stable tie-breaking. *)
}

type t = {
  name : string;
  key : item -> float;
      (** Rank of a waiting task: a {e higher} key launches first. *)
  tie : item -> int;
      (** Tie-break among equal keys: a {e lower} tie launches first.  Two
          items waiting at once never share a tie (every rule here uses the
          arrival number, Offline's ranked order the task id), so the
          order is total. *)
  compare : item -> item -> int;
      (** The order [key]/[tie] define, as a comparator (smaller compares
          first): for the sorted-list oracle and generic queues. *)
}
(** A queue discipline.  The ready queue ({!Moldable_util.Ranked_queue})
    stores each waiting task as its allocation, [key item], [tie item] and
    id, and compares those inline.

    Keys are ordered by [Float.compare], which is total on NaN: NaN sorts
    below every other float, [-.infinity] included, so a task whose key is
    NaN launches after every task with a number key, and NaN keys tie with
    each other (the tie then decides). *)

val make :
  name:string -> key:(item -> float) -> tie:(item -> int) -> t
(** The discipline "higher [key] first, then lower [tie]", with [compare]
    derived from the two. *)

val fifo : t
(** Arrival order — the paper's Algorithm 1: key [0.], tie the arrival
    number.  Every rule below ties on the arrival number too. *)

val longest_first : t
(** Key [t_min]: favors long tasks, a moldable analogue of LPT. *)

val largest_area_first : t
(** Key [alloc * t(alloc)], the task's area. *)

val widest_first : t
(** Key [float alloc]: reduces fragmentation-induced idling. *)

val narrowest_first : t
(** Key [-. float alloc]: maximizes the number of running tasks. *)

val all : t list
(** Every discipline above, for sweep experiments. *)
