open Moldable_sim

(* Deterministic pleasant-ish colour per task id: spread hues by the golden
   angle, fixed saturation/lightness. *)
let color task_id =
  let h = float_of_int (task_id * 137) -. (360. *. Float.of_int (task_id * 137 / 360)) in
  Printf.sprintf "hsl(%.0f, 65%%, 60%%)" h

(* Canvas size in pixels. *)
let width = 800
let height = 400

let of_schedule ?label sched =
  let label = match label with Some f -> f | None -> Printf.sprintf "t%d" in
  let p = Schedule.p sched in
  let ms = Schedule.makespan sched in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
        viewBox=\"0 0 %d %d\">\n"
       width height width height);
  Buffer.add_string buf
    (Printf.sprintf
       "<rect width=\"%d\" height=\"%d\" fill=\"white\" stroke=\"black\"/>\n"
       width height);
  if ms > 0. then begin
    let xscale = float_of_int width /. ms in
    let yscale = float_of_int height /. float_of_int p in
    List.iter
      (fun (pl : Schedule.placement) ->
        (* Contiguous runs of processor ids become one rectangle. *)
        let runs = ref [] in
        let start_run = ref pl.Schedule.procs.(0) in
        let prev = ref pl.Schedule.procs.(0) in
        Array.iteri
          (fun idx proc ->
            if idx > 0 then
              if proc = !prev + 1 then prev := proc
              else begin
                runs := (!start_run, !prev) :: !runs;
                start_run := proc;
                prev := proc
              end)
          pl.Schedule.procs;
        runs := (!start_run, !prev) :: !runs;
        let x = pl.Schedule.start *. xscale in
        let w = (pl.Schedule.finish -. pl.Schedule.start) *. xscale in
        List.iter
          (fun (lo, hi) ->
            let y = float_of_int lo *. yscale in
            let h = float_of_int (hi - lo + 1) *. yscale in
            Buffer.add_string buf
              (Printf.sprintf
                 "<rect x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" height=\"%.2f\" \
                  fill=\"%s\" stroke=\"black\" stroke-width=\"0.5\"><title>%s \
                  [%.4f, %.4f] on %d procs</title></rect>\n"
                 x y w h
                 (color pl.Schedule.task_id)
                 (label pl.Schedule.task_id)
                 pl.Schedule.start pl.Schedule.finish pl.Schedule.nprocs))
          !runs)
      (Schedule.placements sched)
  end;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf
