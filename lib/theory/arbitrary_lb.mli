(** Theorem 9: any deterministic online algorithm is [Omega(ln D)]-competitive
    under arbitrary speedups, where [D] is the number of tasks on the longest
    path.

    The construction fixes [l > 1], sets [K = 2^l], uses [n = 2^K - 1]
    independent chains (group [i] has [2^(K-i)] chains of [i] tasks each,
    for [i = 1..K]), identical tasks with [t(p) = 1/(lg p + 1)], and
    [P = K 2^(K-1)] processors.  The offline optimum finishes at time 1;
    Lemma 10 forces any online algorithm to spend at least [1/(l+i)] between
    consecutive "level completions", hence a makespan of at least
    [sum_{i=1..K} 1/(l+i) > ln K - ln l - 1/l]. *)

type params = {
  ell : int;      (** The free parameter [l >= 2] of the construction. *)
  k : int;        (** [K = 2^l] — also [D], the longest-path task count. *)
  n_chains : int; (** [2^K - 1]. *)
  n_tasks : int;  (** [sum_i i 2^(K-i) = 2^(K+1) - K - 2]. *)
  p : int;        (** [K * 2^(K-1)] processors. *)
}

val params : ell:int -> params
(** @raise Invalid_argument if [ell < 1] or the sizes overflow. *)

val exec_time : int -> float
(** [t(p) = 1 / (lg p + 1)], the common execution-time function. *)

val adversary_gap_sum : ell:int -> float
(** [sum_{i=1..K} 1/(l+i)] — the exact Lemma 10 lower bound on any online
    makespan. *)

val log_gap : ell:int -> float
(** [ln K - ln l - 1/l], the closed-form lower bound of Theorem 9 (always
    at most {!adversary_gap_sum}). *)
