(** Exact rational evaluation of the speedup models of Section 2.

    Parameters are taken as the {e exact rational images} of the floats the
    pipeline actually stores ([Rat.of_float]), so the oracle adjudicates the
    computation the code performs, not the real-analysis idealization of the
    paper.  The four closed-form families (roofline, communication, Amdahl,
    general) evaluate fully exactly; the power and arbitrary models have
    irrational (resp. opaque) execution times, so their "exact" value is the
    rational image of the float evaluation — still useful for replaying
    every downstream comparison exactly, but carrying the model's own float
    rounding, which callers must treat as a documented tolerance. *)

open Moldable_model

type exactness =
  | Closed_form  (** time/area are exact rationals of the parameter images. *)
  | Float_image  (** time/area are rational images of the float evaluation. *)

val exactness : Speedup.t -> exactness

val time : Speedup.t -> int -> Rat.t
(** Execution time on [p >= 1] processors, mirroring {!Speedup.time}. *)

val area : Speedup.t -> int -> Rat.t

val pbar : ?eps:Rat.t -> w:Rat.t -> c:Rat.t -> p:int -> Speedup.t -> int
(** Exact Equation (5): the integer neighbour of [sqrt (w/c)] (clamped to
    [\[1, p\]]) with the smaller execution time, tie-broken toward the
    smaller allocation under the tolerant [leq] at [eps] (default: the image
    of {!Moldable_util.Fcmp.default_eps}) — the spec
    {!Moldable_model.Speedup.closed_p_max} implements in floats. *)

val p_max : ?eps:Rat.t -> p:int -> Speedup.t -> int
(** Exact minimal-time allocation, mirroring
    {!Moldable_model.Speedup.closed_p_max} for the closed forms and the
    fused strict-[<] scan of {!Task.analyze} for arbitrary speedups. *)

val default_eps : Rat.t
(** Exact image of {!Moldable_util.Fcmp.default_eps}. *)
