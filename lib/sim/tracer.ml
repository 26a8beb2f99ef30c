open Moldable_util
module Registry = Moldable_obs.Registry

type decision = {
  task_id : int;
  label : string;
  model : string;
  p : int;
  p_max : int;
  t_min : float;
  a_min : float;
  p_star : int;
  alpha : float;
  beta : float;
  beta_budget : float;
  cap : int;
  cap_applied : bool;
  final_alloc : int;
  alpha_final : float;
  beta_final : float;
  candidates_scanned : int;
}

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
  decisions : (int, decision) Hashtbl.t;
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

let record_decision t (d : decision) =
  if t.enabled && not (Hashtbl.mem t.decisions d.task_id) then
    Hashtbl.add t.decisions d.task_id d

let record_instant t ~time ~kind ~subject =
  if t.enabled then t.instants <- { time; kind; subject } :: t.instants

let decisions t =
  Hashtbl.fold (fun _ d acc -> d :: acc) t.decisions []
  |> List.sort (fun (a : decision) (b : decision) ->
         Int.compare a.task_id b.task_id)

let decision_for t task_id = Hashtbl.find_opt t.decisions task_id

let instants t = List.rev t.instants
let n_decisions t = Hashtbl.length t.decisions

let pp_decision ppf (d : decision) =
  Format.fprintf ppf "task %d %S  model=%s  P=%d@." d.task_id d.label d.model
    d.p;
  Format.fprintf ppf "  analysis: p_max=%d  t_min=%.6g  a_min=%.6g@." d.p_max
    d.t_min d.a_min;
  Format.fprintf ppf
    "  step 1:   p*=%d  alpha(p*)=%.4f  beta(p*)=%.4f  beta budget \
     delta(mu)=%s  candidates scanned=%d@."
    d.p_star d.alpha d.beta
    (if Float.is_nan d.beta_budget then "-"
     else Printf.sprintf "%.4f" d.beta_budget)
    d.candidates_scanned;
  Format.fprintf ppf "  step 2:   cap=%d -> %s@." d.cap
    (if d.cap_applied then "applied" else "not applied");
  Format.fprintf ppf
    "  final:    %d processors  alpha=%.4f  beta=%.4f@." d.final_alloc
    d.alpha_final d.beta_final

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
