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

type rank =
  | By_arrival    (** Key [0.]. *)
  | By_t_min      (** Key [t_min]. *)
  | By_area       (** Key [alloc * t(alloc)]. *)
  | By_alloc      (** Key [float alloc]. *)
  | By_neg_alloc  (** Key [-. float alloc]. *)
(** The key of each discipline below, over the item's fields. *)

val rank_key : rank -> Task.t -> alloc:int -> t_min:float -> float
(** The key [rank] gives a task waiting with allocation [alloc] and
    minimum time [t_min]; the disciplines below tie on the arrival
    number. *)

type t = {
  name : string;
  rank : rank;
      (** The key a waiting task launches by: a {e higher} [rank_key]
          launches first, and equal keys launch in arrival order. *)
  compare : item -> item -> int;
      (** The same order as a comparator (smaller compares first), for the
          sorted-list oracle and generic queues. *)
}
(** A queue discipline.  The ready queue ({!Moldable_util.Ranked_queue})
    stores each waiting task as its allocation, its [rank_key], its arrival
    number and its id, and compares those inline.  Two tasks waiting at
    once never share an arrival number, so the order is total.

    Keys are ordered by [Float.compare], which is total on NaN: NaN sorts
    below every other float, [-.infinity] included, so a task whose key is
    NaN launches after every task with a number key, and NaN keys tie with
    each other (the arrival number then decides). *)

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
