(** Descriptive statistics for experiment reporting. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p95 : float;
}

val summarize : float list -> summary
(** Summary of a non-empty sample of finite floats.  Sorts the sample once
    and computes every field in a single pass (Welford's update for the
    variance), so it is safe to call per cell in large sweeps.
    @raise Invalid_argument on an empty list or a non-finite sample. *)

val mean : float list -> float
(** @raise Invalid_argument on an empty list or a non-finite sample. *)

val stddev : float list -> float
val quantile : float -> float list -> float
(** Interpolated quantile at fractional rank [q *. (n - 1)] of the sorted
    sample (sorted with [Float.compare]) — the primitive behind {!median}.
    @raise Invalid_argument on an empty list, [q] outside [\[0, 1\]] (or
    NaN), or a non-finite sample. *)

val median : float list -> float
(** [quantile 0.5]. *)

val pp_summary : Format.formatter -> summary -> unit
(** Renders ["mean=… sd=… min=… med=… p95=… max=… (n=…)"]. *)
