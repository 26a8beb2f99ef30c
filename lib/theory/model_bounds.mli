(** Upper bounds of Table 1: the per-model [(alpha_x, beta_x)] trade-off
    families of Lemmas 6–9, the closed-form optimal [x] for a given [mu]
    from the proofs of Theorems 1–4, and the numerical minimization over
    [mu] that yields the published competitive ratios

    - roofline: 2.62 at [mu ~= 0.382] (Theorem 1),
    - communication: 3.61 at [mu ~= 0.324] (Theorem 2),
    - Amdahl: 4.74 at [mu ~= 0.271] (Theorem 3),
    - general: 5.72 at [mu ~= 0.211] (Theorem 4). *)

type family = Roofline | Communication | Amdahl | General

val family_name : family -> string
val all_families : family list

val family_of_kind : Moldable_model.Speedup.kind -> family option
(** The Table 1 family of a speedup model; [None] for power-law and
    arbitrary speedups, which have no proven ratio. *)

val alpha_of_x : family -> float -> float
(** [alpha_x] of Lemmas 6–9 ([x] is ignored for roofline, where alpha = 1). *)

val beta_of_x : family -> float -> float
(** [beta_x] of Lemmas 6–9 ([x] ignored for roofline, beta = 1). *)

val x_star : family -> mu:float -> float option
(** The closed-form optimal [x] for a fixed [mu] from the theorem proofs
    (the extreme root of the [beta_x <= delta(mu)] constraint), or [None]
    when no [x] satisfies the constraint for this [mu]. For roofline, always
    [Some nan]-free: returns [Some 0.] as a placeholder (x is unused). *)

val upper_bound_at : family -> mu:float -> float
(** The Lemma 5 competitive ratio for this family at the given [mu], using
    {!x_star}; [infinity] when infeasible. *)

val optimize : ?grid:int -> family -> float * float
(** [(mu_star, ratio)] minimizing {!upper_bound_at} over admissible [mu]. *)

val amdahl_f : float -> float
(** The explicit single-variable objective of Theorem 3,
    [f(mu) = (-2mu^3+5mu^2-4mu+1) / (-mu^4+4mu^3-4mu^2+mu)]; used to
    cross-check the generic pipeline. *)

type row = {
  family : family;
  mu_star : float;
  x_star_value : float;
  ratio : float;
  paper_ratio : float;  (** The Table 1 entry. *)
}

val paper_upper : family -> float
(** The published Table 1 ratio: 2.62, 3.61, 4.74, 5.72. *)

val table1_upper : unit -> row list
(** One row per family, recomputed from scratch. *)
