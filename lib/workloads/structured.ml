open Moldable_model
open Moldable_graph

let make_tasks ?spec rng kind n =
  List.init n (fun id -> Task.make ~id (Params.random ?spec rng kind))

let chain ?spec ~rng ~n ~kind () =
  if n < 1 then invalid_arg "Structured.chain: need n >= 1";
  let tasks = make_tasks ?spec rng kind n in
  let edges = List.init (n - 1) (fun i -> (i, i + 1)) in
  Dag.create ~tasks ~edges

let fork_join ?spec ~rng ~stages ~width ~kind () =
  if stages < 1 || width < 1 then
    invalid_arg "Structured.fork_join: need stages, width >= 1";
  (* Stage s occupies ids [s*(width+1) .. s*(width+1)+width]: the fork node
     then its width children; the next stage's fork doubles as this stage's
     join. The final join is the last id. *)
  let n = (stages * (width + 1)) + 1 in
  let tasks = make_tasks ?spec rng kind n in
  let edges = ref [] in
  for s = 0 to stages - 1 do
    let fork = s * (width + 1) in
    let next_fork = (s + 1) * (width + 1) in
    for j = 1 to width do
      edges := (fork, fork + j) :: (fork + j, next_fork) :: !edges
    done
  done;
  Dag.create ~tasks ~edges:!edges
