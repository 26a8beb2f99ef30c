let bottom_level ~weight g =
  let n = Dag.n g in
  let bl = Array.make n 0. in
  let rev = List.rev (Topo.order g) in
  List.iter
    (fun i ->
      let best =
        List.fold_left
          (fun acc j -> Float.max acc bl.(j))
          0. (Dag.successors g i)
      in
      bl.(i) <- weight i +. best)
    rev;
  bl

let longest_path ~weight g =
  if Dag.n g = 0 then ([], 0.)
  else begin
    let bl = bottom_level ~weight g in
    let start = ref 0 in
    Array.iteri (fun i v -> if v > bl.(!start) then start := i) bl;
    (* From the task with the largest bottom level, repeatedly step to the
       successor with the largest bottom level: since
       bl(i) = weight i + max_j bl(j), that successor continues the longest
       path. *)
    let rec follow i acc =
      match Dag.successors g i with
      | [] -> List.rev (i :: acc)
      | s :: rest ->
        let j =
          List.fold_left (fun b k -> if bl.(k) > bl.(b) then k else b) s rest
        in
        follow j (i :: acc)
    in
    (follow !start [], bl.(!start))
  end
