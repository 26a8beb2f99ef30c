open Moldable_util
open Moldable_model
open Moldable_graph

type job = { id : int; submit : float; run_time : float; procs : int }

type load = { jobs : job list; skipped_lines : int }

let parse text =
  let lines = String.split_on_char '\n' text in
  let jobs = ref [] in
  let skipped = ref 0 in
  let error = ref None in
  List.iteri
    (fun lineno line ->
      if !error = None then begin
        let line = String.trim line in
        if line <> "" && line.[0] <> ';' then begin
          let fields =
            List.filter (fun s -> s <> "")
              (String.split_on_char ' '
                 (String.map (function '\t' -> ' ' | c -> c) line))
          in
          match fields with
          | id :: submit :: _wait :: run :: procs :: _rest -> (
            match
              ( int_of_string_opt id,
                float_of_string_opt submit,
                float_of_string_opt run,
                int_of_string_opt procs )
            with
            | Some id, Some submit, Some run_time, Some procs ->
              (* SWF writes -1 for "unknown / unavailable" and 0 run time
                 for cancelled jobs: both are skipped records, not data
                 errors.  Any other negative duration or width is not an
                 SWF convention — it means the log is corrupt, so fail
                 loudly instead of quietly shrinking the workload. *)
              if run_time < 0. && run_time <> -1. then
                error :=
                  Some
                    (Printf.sprintf "line %d: negative run time %g"
                       (lineno + 1) run_time)
              else if procs < 0 && procs <> -1 then
                error :=
                  Some
                    (Printf.sprintf "line %d: negative processor count %d"
                       (lineno + 1) procs)
              else if run_time > 0. && procs >= 1 && submit >= 0. then
                jobs := { id; submit; run_time; procs } :: !jobs
              else incr skipped
            | _ ->
              (* Unparsable fields: a malformed record, counted. *)
              incr skipped)
          | _ -> incr skipped
        end
      end)
    lines;
  match !error with
  | Some e -> Error e
  | None -> Ok { jobs = List.rev !jobs; skipped_lines = !skipped }

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg

let synthetic ~rng ~n ~mean_interarrival ~max_procs =
  if n < 1 then invalid_arg "Swf.synthetic: need n >= 1";
  if max_procs < 1 then invalid_arg "Swf.synthetic: need max_procs >= 1";
  let now = ref 0. in
  List.init n (fun i ->
      now := !now +. Rng.exponential rng mean_interarrival;
      let procs =
        (* Power-of-two-leaning widths, as in real logs. *)
        if Rng.bernoulli rng 0.7 then begin
          (* Exact integer log2: the float-log quotient lands at 2.999...
             for exact powers of two, and truncation then drops the widest
             power from the distribution. *)
          let max_log = Numerics.ilog2 max_procs in
          Int.min max_procs (1 lsl Rng.int_range rng 0 max_log)
        end
        else Rng.int_range rng 1 max_procs
      in
      {
        id = i + 1;
        submit = !now;
        run_time = Rng.log_uniform rng 30. 28_800.;
        procs;
      })

let to_workload ?(model = `Roofline) ~rng jobs =
  if jobs = [] then invalid_arg "Swf.to_workload: empty job list";
  let jobs = Array.of_list jobs in
  let t0_offset = Array.fold_left (fun m j -> Float.min m j.submit) infinity jobs in
  let tasks =
    Array.to_list
      (Array.mapi
         (fun idx j ->
           let q0 = float_of_int j.procs in
           let speedup =
             match model with
             | `Roofline ->
               Speedup.Roofline { w = j.run_time *. q0; ptilde = j.procs }
             | `Amdahl (f_lo, f_hi) ->
               let f = Rng.float_range rng f_lo f_hi in
               (* Solve w/q0 + d = t0 with d = f * t0. *)
               let d = Float.max 1e-9 (f *. j.run_time) in
               let w = Float.max 1e-9 ((1. -. f) *. j.run_time *. q0) in
               Speedup.Amdahl { w; d }
           in
           Task.make ~label:(Printf.sprintf "job%d" j.id) ~id:idx speedup)
         jobs)
  in
  let releases = Array.map (fun j -> j.submit -. t0_offset) jobs in
  (Dag.create ~tasks ~edges:[], releases)
