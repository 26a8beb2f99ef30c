(** Topological utilities on task graphs. *)

val order : Dag.t -> int list
(** A topological order (Kahn's algorithm, smallest id first among ready
    nodes, so the order is deterministic). *)

val depth : Dag.t -> int array
(** [depth g] maps each task to the number of tasks on the longest chain of
    predecessors ending at it ([0] for sources). *)

val height : Dag.t -> int
(** Number of tasks on the longest path of the graph ([D] in Theorem 9);
    [0] for the empty graph. *)
