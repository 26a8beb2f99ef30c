(** Deterministic splittable pseudo-random number generator (SplitMix64).

    Every experiment in this repository draws randomness from an explicit
    [Rng.t] seeded by the caller, so all reported numbers are reproducible.
    The generator is the SplitMix64 mixer of Steele, Lea and Flood, which has
    a 64-bit state, passes BigCrush, and supports O(1) splitting so that
    independent sub-experiments get independent streams. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent from the remainder of [t]'s stream. *)

val split_n : t -> int -> t array
(** [split_n t n] draws [n] sibling generators by [n] successive {!split}s
    (element [0] first), leaving [t] advanced by [n] steps.  This is the
    seeding primitive for parallel sweeps: split one generator per cell
    {e before} dispatching to a {!Pool}, so results do not depend on the
    execution order of the domains.
    @raise Invalid_argument if [n < 0]. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. Requires [bound > 0.]. *)

val float_range : t -> float -> float -> float
(** [float_range t lo hi] is uniform in [\[lo, hi)]. Requires [lo < hi]. *)

val int_range : t -> int -> int -> int
(** [int_range t lo hi] is uniform in [\[lo, hi\]] (inclusive). *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t mean] draws from Exp with the given mean. *)

val log_uniform : t -> float -> float -> float
(** [log_uniform t lo hi] draws log-uniformly from [\[lo, hi\]]; used for work
    and overhead parameters spanning orders of magnitude. *)
