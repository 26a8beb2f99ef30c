open Moldable_util
open Moldable_model
module Registry = Moldable_obs.Registry

type instant_kind = Ready | Deferred | Stall

type instant = { time : float; kind : instant_kind; subject : int }

type phase = Event_loop | Launch_round | Analyze | Allocator | Ready_queue

let phase_index = function
  | Event_loop -> 0
  | Launch_round -> 1
  | Analyze -> 2
  | Allocator -> 3
  | Ready_queue -> 4

let phase_names =
  [| "event-loop"; "launch-round"; "analyze"; "allocator"; "ready-queue" |]

(* One histogram per phase, indexed by [phase_index]. *)
let register_timers registry =
  Array.map
    (fun name ->
      Registry.histogram registry
        ~name:
          ("moldable_tracer_"
          ^ String.map (function '-' -> '_' | c -> c) name
          ^ "_seconds")
        ~help:("Self-profile: seconds spent in " ^ name))
    phase_names

type t = {
  enabled : bool;
  decisions : (int, Task.decision) Hashtbl.t;
  mutable instants : instant list;
  registry : Registry.t;
  timers : Registry.histogram array;
}

(* [null] is shared, but its mutable state can never change: every recording
   entry point returns before touching it when [enabled] is false. *)
let null =
  {
    enabled = false;
    decisions = Hashtbl.create 1;
    instants = [];
    registry = Registry.null;
    timers = register_timers Registry.null;
  }

let create () =
  let registry = Registry.create () in
  {
    enabled = true;
    decisions = Hashtbl.create 64;
    instants = [];
    registry;
    timers = register_timers registry;
  }

let enabled t = t.enabled

let timed t phase f =
  if t.enabled then begin
    let t0 = Clock.now () in
    Fun.protect
      ~finally:(fun () ->
        Registry.observe t.timers.(phase_index phase) (Clock.now () -. t0))
      f
  end
  else f ()

let profile t = Registry.snapshot t.registry

let record_decision t (d : Task.decision) =
  let id = d.analysis.task.id in
  if t.enabled && not (Hashtbl.mem t.decisions id) then
    Hashtbl.add t.decisions id d

let record_instant t ~time ~kind ~subject =
  if t.enabled then t.instants <- { time; kind; subject } :: t.instants

let decisions t =
  Hashtbl.fold (fun id d acc -> (id, d) :: acc) t.decisions []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

let decision_for t task_id = Hashtbl.find_opt t.decisions task_id

let instants t = List.rev t.instants
let n_decisions t = Hashtbl.length t.decisions

(* Everything but the rule's own outputs is derived from the analysis the
   rule decided on. *)
let pp_decision ppf (d : Task.decision) =
  let a = d.analysis in
  let task = a.task in
  Format.fprintf ppf "task %d %S  model=%s  P=%d@." task.id task.label
    (Speedup.kind_name (Speedup.kind task.speedup))
    a.p;
  Format.fprintf ppf "  analysis: p_max=%d  t_min=%.6g  a_min=%.6g@." a.p_max
    a.t_min a.a_min;
  Format.fprintf ppf
    "  step 1:   p*=%d  alpha(p*)=%.4f  beta(p*)=%.4f  beta budget \
     delta(mu)=%s  candidates scanned=%d@."
    d.p_star (Task.alpha a d.p_star) (Task.beta a d.p_star)
    (if Float.is_nan d.beta_budget then "-"
     else Printf.sprintf "%.4f" d.beta_budget)
    d.candidates_scanned;
  Format.fprintf ppf "  step 2:   cap=%d -> %s@." d.cap
    (if d.cap_applied then "applied" else "not applied");
  Format.fprintf ppf
    "  final:    %d processors  alpha=%.4f  beta=%.4f@." d.final_alloc
    (Task.alpha a d.final_alloc) (Task.beta a d.final_alloc)

let pp_profile ppf t =
  (* The snapshot lists the histograms in registration order, which is
     [phase_names] order. *)
  profile t
  |> List.mapi (fun i (m : Registry.metric_snap) -> (phase_names.(i), m))
  |> List.filter_map (function
       | name, { Registry.ms_value = Hist_v h; _ } when h.count > 0 ->
         Some (name, h)
       | _ -> None)
  |> List.sort (fun (na, (a : Registry.hist_snap)) (nb, b) ->
         match Float.compare b.sum a.sum with
         | 0 -> String.compare na nb
         | c -> c)
  |> List.iter (fun (name, (h : Registry.hist_snap)) ->
         Format.fprintf ppf
           "%-24s %10.6f s  (%d calls, mean %.3g us, max %.3g us)@." name
           h.sum h.count
           (1e6 *. h.sum /. float_of_int (Int.max 1 h.count))
           (1e6 *. h.hmax))
