open Moldable_sim

let alphabet =
  "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"

let glyph task_id = alphabet.[task_id mod String.length alphabet]

let render ?(width = 100) ?(max_rows = 40) ?(legend = true) ?label sched =
  let p = Schedule.p sched in
  let ms = Schedule.makespan sched in
  let label = match label with Some f -> f | None -> Printf.sprintf "t%d" in
  if ms <= 0. then "(empty schedule)\n"
  else begin
    let stride = Int.max 1 ((p + max_rows - 1) / max_rows) in
    let rows = (p + stride - 1) / stride in
    let grid = Array.make_matrix rows width '.' in
    let bin_of t =
      let b = int_of_float (t /. ms *. float_of_int width) in
      if b >= width then width - 1 else if b < 0 then 0 else b
    in
    List.iter
      (fun (pl : Schedule.placement) ->
        let b0 = bin_of pl.Schedule.start in
        (* End bin exclusive, but show at least one bin per placement. *)
        let b1 = Int.max (b0 + 1) (bin_of pl.Schedule.finish) in
        Array.iter
          (fun proc ->
            if proc mod stride = 0 then begin
              let row = proc / stride in
              for b = b0 to b1 - 1 do
                grid.(row).(b) <- glyph pl.Schedule.task_id
              done
            end)
          pl.Schedule.procs)
      (Schedule.placements sched);
    let buf = Buffer.create ((rows + 4) * (width + 12)) in
    Buffer.add_string buf
      (Printf.sprintf "time 0 .. %.4f  (%d procs%s, %d tasks)\n" ms p
         (if stride > 1 then Printf.sprintf ", 1 row = %d procs" stride else "")
         (Schedule.n sched));
    for r = 0 to rows - 1 do
      Buffer.add_string buf (Printf.sprintf "%5d |" (r * stride));
      Buffer.add_string buf (String.init width (fun b -> grid.(r).(b)));
      Buffer.add_char buf '\n'
    done;
    if legend then begin
      Buffer.add_string buf "legend:";
      let seen = Hashtbl.create 16 in
      List.iter
        (fun (pl : Schedule.placement) ->
          let g = glyph pl.Schedule.task_id in
          if not (Hashtbl.mem seen g) then begin
            Hashtbl.add seen g ();
            if Hashtbl.length seen <= 20 then
              Buffer.add_string buf
                (Printf.sprintf " %c=%s" g (label pl.Schedule.task_id))
          end)
        (Schedule.placements sched);
      if Hashtbl.length seen > 20 then Buffer.add_string buf " ...";
      Buffer.add_char buf '\n'
    end;
    Buffer.contents buf
  end
