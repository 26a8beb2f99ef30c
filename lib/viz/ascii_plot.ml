type series = {
  label : string;
  glyph : char;
  points : (float * float) list;
}

(* Canvas size in characters. *)
let width = 64
let height = 16

let render ?(x_log = false) ?(hlines = []) ~xlabel ~ylabel series =
  let all_points = List.concat_map (fun s -> s.points) series in
  if all_points = [] then "(no data)\n"
  else begin
    let xs = List.map fst all_points in
    let ys = List.map snd all_points @ List.map fst hlines in
    let xmin = List.fold_left Float.min Float.infinity xs in
    let xmax = List.fold_left Float.max Float.neg_infinity xs in
    let ymin = List.fold_left Float.min Float.infinity ys in
    let ymax = List.fold_left Float.max Float.neg_infinity ys in
    (* Pad degenerate ranges so single points still render. *)
    let ymin, ymax =
      if ymax -. ymin < 1e-12 then (ymin -. 1., ymax +. 1.) else (ymin, ymax)
    in
    let fx x = if x_log then log x else x in
    let xmin', xmax' = (fx xmin, fx xmax) in
    let xmin', xmax' =
      if xmax' -. xmin' < 1e-12 then (xmin' -. 1., xmax' +. 1.)
      else (xmin', xmax')
    in
    let col x =
      let c =
        int_of_float
          ((fx x -. xmin') /. (xmax' -. xmin') *. float_of_int (width - 1))
      in
      if c < 0 then 0 else if c >= width then width - 1 else c
    in
    let row y =
      let r =
        int_of_float
          ((y -. ymin) /. (ymax -. ymin) *. float_of_int (height - 1))
      in
      let r = if r < 0 then 0 else if r >= height then height - 1 else r in
      height - 1 - r
    in
    let grid = Array.make_matrix height width ' ' in
    List.iter
      (fun (y, _) ->
        let r = row y in
        for c = 0 to width - 1 do
          grid.(r).(c) <- '-'
        done)
      hlines;
    List.iter
      (fun s ->
        List.iter (fun (x, y) -> grid.(row y).(col x) <- s.glyph) s.points)
      series;
    let buf = Buffer.create ((height + 4) * (width + 12)) in
    for r = 0 to height - 1 do
      let yval =
        ymax -. (float_of_int r /. float_of_int (height - 1) *. (ymax -. ymin))
      in
      Buffer.add_string buf (Printf.sprintf "%8.3f |" yval);
      Buffer.add_string buf (String.init width (fun c -> grid.(r).(c)));
      Buffer.add_char buf '\n'
    done;
    Buffer.add_string buf (String.make 9 ' ');
    Buffer.add_char buf '+';
    Buffer.add_string buf (String.make width '-');
    Buffer.add_char buf '\n';
    Buffer.add_string buf
      (Printf.sprintf "%9s %.8g%s%.8g  (%s%s)\n" "" xmin
         (String.make (Int.max 1 (width - 16)) ' ')
         xmax xlabel
         (if x_log then ", log scale" else ""));
    Buffer.add_string buf (Printf.sprintf "y: %s;" ylabel);
    List.iter
      (fun s -> Buffer.add_string buf (Printf.sprintf "  %c = %s" s.glyph s.label))
      series;
    List.iter
      (fun (y, label) ->
        Buffer.add_string buf (Printf.sprintf "  -- = %s (%.3f)" label y))
      hlines;
    Buffer.add_char buf '\n';
    Buffer.contents buf
  end
