(** Scalar numerical routines used by the theory module, chiefly
    one-dimensional minimization (golden-section refined from a grid scan).
    The competitive-ratio optimizations of Theorems 2–4 are minimizations
    of smooth single-variable functions over an interval. *)

val golden_section_min :
  ?tol:float -> f:(float -> float) -> lo:float -> hi:float -> unit ->
  float * float
(** [golden_section_min ~f ~lo ~hi ()] returns [(x_star, f x_star)] minimizing the
    unimodal function [f] on [\[lo, hi\]] to absolute tolerance [tol]
    (default [1e-12] on [x]). *)

val grid_min :
  ?n:int -> f:(float -> float) -> lo:float -> hi:float -> unit ->
  float * float
(** Dense scan with [n] points (default 10_000); robust for non-unimodal
    functions; returns the best sample.  Non-finite samples (NaN poles,
    infinities) are skipped.
    @raise Invalid_argument if no grid point has a finite value. *)

val minimize :
  ?tol:float -> ?grid:int -> f:(float -> float) -> lo:float -> hi:float ->
  unit -> float * float
(** Grid scan to bracket the global minimum, then golden-section refinement
    inside the best bracket. Suitable for the piecewise-smooth ratio
    functions of the paper.  Non-finite samples never win; the refinement
    can only improve on the best finite grid point.
    @raise Invalid_argument if no grid point has a finite value. *)

val integer_argmin : f:(int -> float) -> lo:int -> hi:int -> int
(** Exhaustive argmin of [f] over integers [\[lo, hi\]]; ties break to the
    smallest argument. Requires [lo <= hi]. *)

val integer_argmin_unimodal : f:(int -> float) -> lo:int -> hi:int -> int
(** Ternary-search argmin for a unimodal [f] (non-increasing then
    non-decreasing) over [\[lo, hi\]]; ties break toward the smallest
    argument within the final bracket. O(log(hi-lo)) evaluations. *)

val ilog2 : int -> int
(** Exact [floor (log2 n)] for [n >= 1], by bit shifting — no float
    round-trip, so exact powers of two are never under-counted.
    @raise Invalid_argument for [n < 1]. *)

val iceil_guarded : ?eps:float -> float -> int
(** [ceil] with a relative guard band: an input an ulp {e above} its
    mathematical integer value still ceils to that integer — the Step-2
    [ceil (mu P)] rule of Algorithm 2 ({!section} PR-1's [Mu.cap] fix,
    factored here for every [int_of_float] boundary site).
    @raise Invalid_argument on non-finite input. *)
