open Moldable_util
open Moldable_model
open Moldable_graph

(* Generic builder: tasks are registered by a structural key, edges by key
   pairs; missing sources (updates of round k-1 that do not exist) are
   skipped by the caller. *)
type 'k builder = {
  rng : Rng.t;
  spec : Params.spec option;
  kind : Speedup.kind;
  table : ('k, int) Hashtbl.t;
  mutable rev_tasks : Task.t list;
  mutable edges : (int * int) list;
  mutable next : int;
}

let builder ?spec ~rng ~kind () =
  {
    rng;
    spec;
    kind;
    table = Hashtbl.create 64;
    rev_tasks = [];
    edges = [];
    next = 0;
  }

(* The work of a [b^3]-flop kernel. *)
let base_work = 100.

let add_task b key ~label ~weight =
  let w = Float.max 1e-9 (weight *. base_work) in
  let speedup = Params.with_work ?spec:b.spec b.rng b.kind ~w in
  let id = b.next in
  b.next <- id + 1;
  Hashtbl.replace b.table key id;
  b.rev_tasks <- Task.make ~label ~id speedup :: b.rev_tasks

let add_edge b src dst =
  match (Hashtbl.find_opt b.table src, Hashtbl.find_opt b.table dst) with
  | Some i, Some j -> b.edges <- (i, j) :: b.edges
  | None, _ | _, None -> invalid_arg "Linalg.add_edge: unknown task key"

let finish b = Dag.create ~tasks:(List.rev b.rev_tasks) ~edges:b.edges

(* Tiled Cholesky kernel keys. *)
type chol = Potrf of int | Trsm of int * int | Syrk of int * int
          | Gemm of int * int * int

let cholesky ?spec ~rng ~tiles ~kind () =
  if tiles < 1 then invalid_arg "Linalg.cholesky: need tiles >= 1";
  let t = tiles in
  let b = builder ?spec ~rng ~kind () in
  for k = 0 to t - 1 do
    add_task b (Potrf k) ~label:(Printf.sprintf "potrf(%d)" k) ~weight:(1. /. 3.);
    for i = k + 1 to t - 1 do
      add_task b (Trsm (i, k)) ~label:(Printf.sprintf "trsm(%d,%d)" i k)
        ~weight:1.;
      add_task b (Syrk (i, k)) ~label:(Printf.sprintf "syrk(%d,%d)" i k)
        ~weight:1.;
      for j = k + 1 to i - 1 do
        add_task b (Gemm (i, j, k)) ~label:(Printf.sprintf "gemm(%d,%d,%d)" i j k)
          ~weight:2.
      done
    done
  done;
  for k = 0 to t - 1 do
    if k > 0 then add_edge b (Syrk (k, k - 1)) (Potrf k);
    for i = k + 1 to t - 1 do
      add_edge b (Potrf k) (Trsm (i, k));
      if k > 0 then add_edge b (Gemm (i, k, k - 1)) (Trsm (i, k));
      add_edge b (Trsm (i, k)) (Syrk (i, k));
      if k > 0 then add_edge b (Syrk (i, k - 1)) (Syrk (i, k));
      for j = k + 1 to i - 1 do
        add_edge b (Trsm (i, k)) (Gemm (i, j, k));
        add_edge b (Trsm (j, k)) (Gemm (i, j, k));
        if k > 0 then add_edge b (Gemm (i, j, k - 1)) (Gemm (i, j, k))
      done
    done
  done;
  finish b

(* Tiled LU kernel keys. *)
type lu_key = Getrf of int | Trsm_row of int * int | Trsm_col of int * int
            | Update of int * int * int

let lu ?spec ~rng ~tiles ~kind () =
  if tiles < 1 then invalid_arg "Linalg.lu: need tiles >= 1";
  let t = tiles in
  let b = builder ?spec ~rng ~kind () in
  for k = 0 to t - 1 do
    add_task b (Getrf k) ~label:(Printf.sprintf "getrf(%d)" k) ~weight:(2. /. 3.);
    for j = k + 1 to t - 1 do
      add_task b (Trsm_row (k, j)) ~label:(Printf.sprintf "trsmU(%d,%d)" k j)
        ~weight:1.
    done;
    for i = k + 1 to t - 1 do
      add_task b (Trsm_col (i, k)) ~label:(Printf.sprintf "trsmL(%d,%d)" i k)
        ~weight:1.;
      for j = k + 1 to t - 1 do
        add_task b (Update (i, j, k)) ~label:(Printf.sprintf "gemm(%d,%d,%d)" i j k)
          ~weight:2.
      done
    done
  done;
  for k = 0 to t - 1 do
    if k > 0 then add_edge b (Update (k, k, k - 1)) (Getrf k);
    for j = k + 1 to t - 1 do
      add_edge b (Getrf k) (Trsm_row (k, j));
      if k > 0 then add_edge b (Update (k, j, k - 1)) (Trsm_row (k, j))
    done;
    for i = k + 1 to t - 1 do
      add_edge b (Getrf k) (Trsm_col (i, k));
      if k > 0 then add_edge b (Update (i, k, k - 1)) (Trsm_col (i, k));
      for j = k + 1 to t - 1 do
        add_edge b (Trsm_col (i, k)) (Update (i, j, k));
        add_edge b (Trsm_row (k, j)) (Update (i, j, k));
        if k > 0 then add_edge b (Update (i, j, k - 1)) (Update (i, j, k))
      done
    done
  done;
  finish b
