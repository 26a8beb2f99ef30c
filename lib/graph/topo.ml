let order g =
  let n = Dag.n g in
  let indeg = Array.init n (Dag.in_degree g) in
  (* The ready set keyed by id: ids are distinct, so the heap's FIFO
     tie-break never decides and the smallest ready id comes out first. *)
  let ready = Moldable_util.Float_heap.create () in
  let push i = Moldable_util.Float_heap.push ready ~key:(float_of_int i) i in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then push i
  done;
  let rec loop acc =
    if Moldable_util.Float_heap.is_empty ready then List.rev acc
    else begin
      let i = Moldable_util.Float_heap.min_payload ready in
      Moldable_util.Float_heap.drop_min ready;
      List.iter
        (fun j ->
          indeg.(j) <- indeg.(j) - 1;
          if indeg.(j) = 0 then push j)
        (Dag.successors g i);
      loop (i :: acc)
    end
  in
  loop []

let depth g =
  let d = Array.make (Dag.n g) 0 in
  List.iter
    (fun i ->
      List.iter
        (fun j -> if d.(j) < d.(i) + 1 then d.(j) <- d.(i) + 1)
        (Dag.successors g i))
    (order g);
  d

let height g =
  if Dag.n g = 0 then 0 else 1 + Array.fold_left Int.max 0 (depth g)
