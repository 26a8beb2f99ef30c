(** Tolerant floating-point comparisons.

    Scheduling simulations accumulate floating-point error when summing task
    durations; every comparison of times, areas or ratios in this code base
    goes through this module so that the tolerance is defined in one place.
    The one copy is the model library's [Speedup], whose allocation kernels
    inline [leq] at {!default_eps} (pinned to this module by a test). *)

val default_eps : float
(** Default absolute/relative tolerance, [1e-9]. *)

val approx : ?eps:float -> float -> float -> bool
(** [approx a b] is true when [a] and [b] are equal up to [eps], absolutely
    for small magnitudes and relatively for large ones. *)

val leq : ?eps:float -> float -> float -> bool
(** [leq a b] is [a <= b] up to tolerance ([a] may exceed [b] by [eps]). *)

val geq : ?eps:float -> float -> float -> bool
(** [geq a b] is [b <= a] up to tolerance. *)

val lt : ?eps:float -> float -> float -> bool
(** Strictly less, beyond tolerance. *)

