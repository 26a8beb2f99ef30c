open Moldable_model
open Moldable_graph

type phase = { t0 : float; t1 : float; allocs : (int * int) list }

type result = {
  phases : phase list;
  makespan : float;
  completion : float array;
}

(* Fair water-filling: split [p] processors among the given tasks, capping
   each at its p_max; excess from capped tasks is redistributed among the
   rest round by round.  Tasks receive at least one processor as long as
   there are at most [p] of them (the caller never activates more). *)
let water_fill ~p tasks_with_caps =
  let n = List.length tasks_with_caps in
  if n = 0 then []
  else begin
    let alloc = Hashtbl.create n in
    let remaining = ref p in
    let active = ref tasks_with_caps in
    let continue = ref true in
    while !continue && !active <> [] && !remaining > 0 do
      let m = List.length !active in
      let share = Int.max 1 (!remaining / m) in
      let next_active = ref [] in
      let gave = ref false in
      List.iter
        (fun (id, cap) ->
          let current = Option.value ~default:0 (Hashtbl.find_opt alloc id) in
          let want = Int.min cap (current + share) in
          let give = Int.min (want - current) !remaining in
          if give > 0 then begin
            Hashtbl.replace alloc id (current + give);
            remaining := !remaining - give;
            gave := true
          end;
          if current + give < cap then next_active := (id, cap) :: !next_active)
        !active;
      active := List.rev !next_active;
      if not !gave then continue := false
    done;
    List.filter_map
      (fun (id, _) ->
        match Hashtbl.find_opt alloc id with
        | Some q when q > 0 -> Some (id, q)
        | Some _ | None -> None)
      tasks_with_caps
  end

let equal_share ~p dag =
  let n = Dag.n dag in
  let indeg = Array.init n (Dag.in_degree dag) in
  let remaining = Array.make n 1.0 in
  let completion = Array.make n nan in
  (* Tasks beyond platform capacity wait in FIFO order.  The queue is a
     two-list deque ([head] in order, [tail] reversed) with a [finished]
     membership array: push-back on reveal, pop from the head for the active
     set, and push-front to return still-running actives — every operation
     is amortized O(1), where the seed's [list @ [i]] append and
     [List.mem i finished] filter were both O(n) per round. *)
  let head = ref [] and tail = ref [] in
  let finished_flag = Array.make n false in
  let reveal i = tail := i :: !tail in
  List.iter reveal (Dag.sources dag);
  (* Pop up to [k] tasks from the queue front, preserving FIFO order. *)
  let rec pop_front k acc =
    if k = 0 then List.rev acc
    else
      match !head with
      | x :: rest ->
        head := rest;
        pop_front (k - 1) (x :: acc)
      | [] ->
        if !tail = [] then List.rev acc
        else begin
          head := List.rev !tail;
          tail := [];
          pop_front k acc
        end
  in
  let phases = ref [] in
  let now = ref 0. in
  let completed = ref 0 in
  while !completed < n do
    (* Activate at most P tasks (each needs >= 1 processor). *)
    let active = pop_front p [] in
    if active = [] then
      failwith "Malleable_engine.equal_share: stalled with tasks remaining";
    let caps =
      List.map
        (fun i -> (i, (Task.analyze ~p (Dag.task dag i)).Task.p_max))
        active
    in
    let allocs = water_fill ~p caps in
    let rates =
      List.map
        (fun (i, q) -> (i, 1. /. Task.time (Dag.task dag i) q))
        allocs
    in
    (* Next event: the earliest completion under these rates. *)
    let dt =
      List.fold_left
        (fun acc (i, rate) -> Float.min acc (remaining.(i) /. rate))
        infinity rates
    in
    if not (Float.is_finite dt) then
      failwith "Malleable_engine.equal_share: no progress possible";
    let t0 = !now and t1 = !now +. dt in
    phases := { t0; t1; allocs } :: !phases;
    now := t1;
    let finished = ref [] in
    List.iter
      (fun (i, rate) ->
        remaining.(i) <- remaining.(i) -. (rate *. dt);
        if remaining.(i) <= 1e-12 then begin
          remaining.(i) <- 0.;
          completion.(i) <- t1;
          finished := i :: !finished
        end)
      rates;
    let finished = List.rev !finished in
    List.iter (fun i -> finished_flag.(i) <- true) finished;
    (* Unfinished actives return to the queue front in their original order;
       only tasks in the active set can have finished, so the rest of the
       queue is untouched. *)
    head := List.filter (fun i -> not finished_flag.(i)) active @ !head;
    List.iter
      (fun i ->
        incr completed;
        List.iter
          (fun j ->
            indeg.(j) <- indeg.(j) - 1;
            if indeg.(j) = 0 then reveal j)
          (Dag.successors dag i))
      finished
  done;
  { phases = List.rev !phases; makespan = !now; completion }
