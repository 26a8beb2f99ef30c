(** Directed acyclic graphs of moldable tasks (Section 3.1).

    Task ids must be exactly [0 .. n-1]; an edge [(i, j)] means task [j]
    cannot start before task [i] completes.  The structure is immutable after
    {!create}, which validates id contiguity, edge well-formedness and
    acyclicity. *)

open Moldable_model

type t

val create : tasks:Task.t list -> edges:(int * int) list -> t
(** @raise Invalid_argument on duplicate/non-contiguous ids, self-loops,
    out-of-range edges, or cycles. Duplicate edges are coalesced. *)

val n : t -> int
(** Number of tasks. *)

val task : t -> int -> Task.t
val tasks : t -> Task.t array
(** A fresh copy of the task array, indexed by id. *)

val successors : t -> int -> int list
val predecessors : t -> int -> int list
val in_degree : t -> int -> int

val sources : t -> int list
(** Tasks without predecessors, in id order. *)

val sinks : t -> int list
(** Tasks without successors, in id order. *)

val edges : t -> (int * int) list
(** All edges, lexicographically sorted. *)

val n_edges : t -> int

val map_tasks : (Task.t -> Task.t) -> t -> t
(** Rebuilds the graph with transformed tasks (ids must be preserved).
    @raise Invalid_argument if a task id is changed. *)

val pp_stats : Format.formatter -> t -> unit
(** One line: node count, edge count, sources, sinks. *)
