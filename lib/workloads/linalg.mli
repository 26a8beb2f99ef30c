(** Tiled dense linear-algebra task graphs.

    The paper motivates moldable tasks with "computational kernels in
    scientific libraries for numerical linear algebra and tensor
    computations"; these generators produce the classic tiled Cholesky and
    LU factorization DAGs over a [t x t] tile grid.  Per-kernel work is
    proportional to the kernel's flop count ([b^3/3] for POTRF, [b^3] for
    TRSM/SYRK, [2 b^3] for GEMM, with [b^3] normalized to 100); the
    remaining speedup parameters are drawn from [spec]. *)

open Moldable_util
open Moldable_model
open Moldable_graph

val cholesky :
  ?spec:Params.spec -> rng:Rng.t -> tiles:int ->
  kind:Speedup.kind -> unit -> Dag.t
(** Tiled Cholesky factorization: POTRF, TRSM, SYRK and GEMM tasks with
    their standard dependencies.  [tiles >= 1]; the graph has
    [t(t+1)(t+2)/6 + ...] tasks (e.g. 14 tasks for [tiles = 3]). *)

val lu :
  ?spec:Params.spec -> rng:Rng.t -> tiles:int ->
  kind:Speedup.kind -> unit -> Dag.t
(** Tiled right-looking LU factorization (no pivoting): GETRF, row/column
    TRSM and GEMM update tasks. *)
