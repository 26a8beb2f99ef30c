(** Speedup models of the paper (Section 3.1).

    A moldable task run on [p] processors takes time [t(p)].  The paper's
    general execution-time function (Equation (1)) is

    {[ t(p) = w / min(p, ptilde) + d + c * (p - 1) ]}

    where [w] is the parallelizable work, [ptilde] the maximum degree of
    parallelism, [d] the inherently sequential work and [c] the per-processor
    communication overhead.  Three named special cases are studied:

    - {e roofline} (Equation (2)): [d = 0, c = 0];
    - {e communication} (Equation (3)): [ptilde >= P, d = 0, c > 0];
    - {e Amdahl} (Equation (4)): [ptilde >= P, c = 0, d > 0].

    The [Arbitrary] constructor covers Section 5, where [t(p)] may be any
    function of [p] (used by the [Omega(ln D)] lower bound with
    [t(p) = 1 / (lg p + 1)]). *)

type t =
  | Roofline of { w : float; ptilde : int }
      (** [t(p) = w / min(p, ptilde)]. Requires [w > 0], [ptilde >= 1]. *)
  | Communication of { w : float; c : float }
      (** [t(p) = w/p + c(p-1)]. Requires [w > 0], [c > 0]. *)
  | Amdahl of { w : float; d : float }
      (** [t(p) = w/p + d]. Requires [w > 0], [d > 0]. *)
  | General of { w : float; ptilde : int; d : float; c : float }
      (** Equation (1). Requires [w > 0], [ptilde >= 1], [d >= 0], [c >= 0]. *)
  | Power of { w : float; alpha : float }
      (** [t(p) = w / p^alpha] — the Prasanna–Musicus power-law model, one of
          the "other common speedup models" the paper's conclusion proposes
          to study.  Requires [w > 0] and [0 < alpha <= 1]; [alpha = 1] is
          unbounded linear speedup.  {e Not} covered by the Table 1
          guarantees: the area grows as [p^(1-alpha)], so no constant
          competitive ratio is possible for Algorithm 2's allocation rule
          (the benches explore this empirically). *)
  | Arbitrary of { name : string; time : int -> float }
      (** Any positive execution-time function (Section 5). *)

type kind = Kind_roofline | Kind_communication | Kind_amdahl | Kind_general
          | Kind_power | Kind_arbitrary
(** Model family, used to select the per-family constant [mu]. *)

val kind : t -> kind
val kind_name : kind -> string

val validate : t -> (unit, string) result
(** Checks the parameter constraints documented on each constructor, and
    that every float parameter is finite (NaN and infinities are rejected
    after the range checks, with a ["... must be finite"] message). *)

val time : t -> int -> float
(** [time m p] is [t(p)]; [p >= 1] required.  The four closed-form models
    evaluate one definition of Equation (1),
    [w / min(p, ptilde) + d + c (p - 1)]: a named case passes
    [ptilde = max_int], [d = 0.] or [c = 0.] for the parameters it lacks,
    which changes no bit of its own formula's value. *)

val store_closed : t -> float array -> int -> int
(** [store_closed m dst off] writes Equation (1)'s [w], [d] and [c] of a
    closed-form model to [dst.(off)], [dst.(off + 1)] and [dst.(off + 2)]
    and returns its [ptilde] ([max_int] when unbounded).  [Power] and
    [Arbitrary] have no closed form: they return [0] and write
    nothing. *)

val flat_time : float array -> int -> ptilde:int -> int -> float
(** [flat_time wdc off ~ptilde p] is Equation (1) at [p >= 1] of the [w],
    [d] and [c] that {!store_closed} wrote at [off] and the [ptilde] it
    returned: [time m p] bit for bit, through the same definition. *)

val closed_p_max : p:int -> t -> int
(** Equation (5): [min(P, ptilde, pbar)], where [pbar] is the integer
    around [sqrt(w/c)] with the smaller execution time (ties within
    {!Moldable_util.Fcmp.leq}'s tolerance go to the smaller one); [P] for
    [Power], whose time strictly decreases; [-1] for [Arbitrary], which
    has no closed form.  Allocates nothing. *)

val smallest_within : t -> p_max:int -> float -> int
(** [smallest_within m ~p_max bound] is the smallest [q] in [\[1, p_max\]]
    with [time m q <= bound] up to {!Moldable_util.Fcmp.leq}'s tolerance,
    found by bisection, assuming the time does not increase on that range
    (Lemma 1) and [time m p_max] is within [bound]: the Step-1 search of
    Algorithm 2.  Allocates nothing on the closed-form models. *)

val area : t -> int -> float
(** [area m p = p * time m p] — processor-time product (Section 3.1). *)

val speedup : t -> int -> float
(** [speedup m p = time m 1 /. time m p]. *)

val canonical_general : t -> t option
(** Re-expresses a named special case as the [General] form when possible
    ([Arbitrary] yields [None]); used to cross-check the closed forms. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
