(** Ordering disciplines for the waiting queue of Algorithm 1.

    The paper inserts available tasks without priority consideration (FIFO)
    and notes that "in practice certain priority rules may work better".
    The rules listed here use only information visible online: the task's
    own parameters and its chosen allocation — never the graph.  The
    clairvoyant list schedulers of {!Offline} build their graph-derived
    ranks as a [t] of their own and run them on the same ready queue. *)

open Moldable_model

type item = {
  task : Task.t;
  alloc : int;     (** Final allocation chosen at reveal time. *)
  t_min : float;   (** Minimum execution time of the task. *)
  seq : int;       (** Arrival number, for stable tie-breaking. *)
}

type t = { name : string; compare : item -> item -> int }
(** Smaller compares first in the queue scan. *)

val fifo : t
(** Arrival order — the paper's Algorithm 1. *)

val longest_first : t
(** Largest [t_min] first: favors long tasks, a moldable analogue of LPT. *)

val largest_area_first : t
(** Largest [alloc * t(alloc)] first. *)

val widest_first : t
(** Largest allocation first: reduces fragmentation-induced idling. *)

val narrowest_first : t
(** Smallest allocation first: maximizes the number of running tasks. *)

val all : t list
(** Every discipline above, for sweep experiments. *)
