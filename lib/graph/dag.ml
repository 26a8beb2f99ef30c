open Moldable_model

type t = {
  tasks : Task.t array;
  succ : int list array; (* ascending *)
  pred : int list array; (* ascending *)
}

let sort_uniq_ints = List.sort_uniq Int.compare

let check_acyclic n succ =
  (* Kahn's algorithm: if we cannot consume every node, there is a cycle. *)
  let indeg = Array.make n 0 in
  Array.iter (fun ss -> List.iter (fun j -> indeg.(j) <- indeg.(j) + 1) ss) succ;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    incr seen;
    List.iter
      (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then Queue.add j queue)
      succ.(i)
  done;
  !seen = n

let create ~tasks ~edges =
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  Array.iteri
    (fun i (t : Task.t) ->
      if t.Task.id <> i then
        invalid_arg
          (Printf.sprintf
             "Dag.create: task ids must be 0..n-1 in order (position %d has \
              id %d)"
             i t.Task.id))
    tasks;
  let succ = Array.make n [] and pred = Array.make n [] in
  List.iter
    (fun (i, j) ->
      if i < 0 || i >= n || j < 0 || j >= n then
        invalid_arg (Printf.sprintf "Dag.create: edge (%d,%d) out of range" i j);
      if i = j then
        invalid_arg (Printf.sprintf "Dag.create: self-loop on %d" i);
      succ.(i) <- j :: succ.(i);
      pred.(j) <- i :: pred.(j))
    edges;
  for i = 0 to n - 1 do
    succ.(i) <- sort_uniq_ints succ.(i);
    pred.(i) <- sort_uniq_ints pred.(i)
  done;
  if not (check_acyclic n succ) then
    invalid_arg "Dag.create: the precedence graph contains a cycle";
  { tasks; succ; pred }

let n t = Array.length t.tasks
let task t i = t.tasks.(i)
let tasks t = Array.copy t.tasks
let successors t i = t.succ.(i)
let predecessors t i = t.pred.(i)
let in_degree t i = List.length t.pred.(i)

let filter_ids f t =
  let acc = ref [] in
  for i = Array.length t.tasks - 1 downto 0 do
    if f i then acc := i :: !acc
  done;
  !acc

let sources t = filter_ids (fun i -> t.pred.(i) = []) t
let sinks t = filter_ids (fun i -> t.succ.(i) = []) t

let edges t =
  let acc = ref [] in
  Array.iteri (fun i ss -> List.iter (fun j -> acc := (i, j) :: !acc) ss) t.succ;
  List.sort
    (fun (a1, a2) (b1, b2) ->
      match Int.compare a1 b1 with 0 -> Int.compare a2 b2 | c -> c)
    !acc

let n_edges t = Array.fold_left (fun a ss -> a + List.length ss) 0 t.succ

let map_tasks f t =
  let tasks' =
    Array.mapi
      (fun i task ->
        let task' = f task in
        if task'.Task.id <> i then
          invalid_arg "Dag.map_tasks: the mapping must preserve task ids";
        task')
      t.tasks
  in
  { t with tasks = tasks' }

let pp_stats ppf t =
  Format.fprintf ppf "dag: %d tasks, %d edges, %d sources, %d sinks" (n t)
    (n_edges t)
    (List.length (sources t))
    (List.length (sinks t))
