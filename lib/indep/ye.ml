open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_core

let canonical_objective ~p task q =
  Float.max (Task.time task q) (Task.area task q /. float_of_int p)

let canonical_rule ~p ~p_max task =
  match Speedup.kind task.Task.speedup with
  | Speedup.Kind_arbitrary ->
    (* When the sampled model is monotonic (Lemma 1 sense), max(t, a/P) is
       unimodal and a ternary search suffices; otherwise scan. *)
    let argmin =
      if (Task.analyze ~p task).Task.monotonic then
        Moldable_util.Numerics.integer_argmin_unimodal
      else Moldable_util.Numerics.integer_argmin
    in
    argmin ~f:(canonical_objective ~p task) ~lo:1 ~hi:p_max
  | Speedup.Kind_roofline | Speedup.Kind_communication | Speedup.Kind_amdahl
  | Speedup.Kind_general | Speedup.Kind_power ->
    (* t is non-increasing and a/P non-decreasing on [1, p_max] (Lemma 1),
       so max(t, a/P) is unimodal: find the crossing. *)
    if p_max = 1 then 1
    else begin
      let crosses q =
        Task.area task q /. float_of_int p >= Task.time task q
      in
      if crosses 1 then 1
      else if not (crosses p_max) then p_max
      else begin
        (* Invariant: not (crosses lo) && crosses hi. *)
        let lo = ref 1 and hi = ref p_max in
        while !hi - !lo > 1 do
          let mid = (!lo + !hi) / 2 in
          if crosses mid then hi := mid else lo := mid
        done;
        if
          canonical_objective ~p task !lo
          <= canonical_objective ~p task !hi
        then !lo
        else !hi
      end
    end

let canonical_allotment ~p task =
  canonical_rule ~p ~p_max:(Task.p_max ~p task) task

let allocator = Allocator.make ~name:"canonical(max(t, a/P))" canonical_rule

let policy ~p = Online_scheduler.policy ~allocator ~p ()

let run ?release_times ~p dag =
  if Dag.n_edges dag <> 0 then
    invalid_arg "Ye.run: the task set must be independent";
  Sim_core.run ?release_times ~p (policy ~p) dag
