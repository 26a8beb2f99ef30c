(** Weighted longest paths.  With the weight of task [j] set to its minimum
    execution time [t_min], the longest source-to-sink path length is the
    minimum critical-path length [C_min] of Definition 2. *)

val longest_path : weight:(int -> float) -> Dag.t -> int list * float
(** The path of largest summed task weight (task ids, source first)
    together with its length; [([], 0.)] for the empty graph. *)

val bottom_level : weight:(int -> float) -> Dag.t -> float array
(** [bottom_level ~weight g] maps each task to the largest weighted length of
    a path starting at it (inclusive of its own weight) — the classic
    bottom-level priority used by critical-path list scheduling. *)
