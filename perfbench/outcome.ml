(* What one benchmark run reports: correctness counts, metrics with their
   unit and sample count, and free-form notes.  [print] writes the human
   lines followed by the one-line JSON result the harness reads. *)

module Json = Moldable_obs.Json

type metric = { name : string; value : float; unit_ : string; n : int }

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable checks : (string * bool) list;
  mutable metrics : metric list;  (** Reported in the JSON result. *)
  mutable extra : metric list;  (** Printed for people only. *)
  mutable notes : string list;
}

let create () =
  { attempted = 0; failed = 0; checks = []; metrics = []; extra = []; notes = [] }

let ops r ~attempted ~failed =
  r.attempted <- r.attempted + attempted;
  r.failed <- r.failed + failed

(* A correctness check is one attempted operation; a failed one counts in
   [failed] and makes the run incorrect. *)
let check r name ok =
  r.checks <- (name, ok) :: r.checks;
  ops r ~attempted:1 ~failed:(if ok then 0 else 1)

let metric r ?(n = 1) name unit_ value =
  r.metrics <- { name; value; unit_; n } :: r.metrics

let extra r ?(n = 1) name unit_ value =
  r.extra <- { name; value; unit_; n } :: r.extra

let note r fmt = Printf.ksprintf (fun s -> r.notes <- s :: r.notes) fmt
let correct r = r.failed = 0 && List.for_all snd r.checks

let error_ratio r =
  if r.attempted = 0 then 0. else float_of_int r.failed /. float_of_int r.attempted

let print_human ~workload r =
  Printf.printf "workload %s\n" workload;
  List.iter (fun s -> Printf.printf "note   %s\n" s) (List.rev r.notes);
  List.iter
    (fun (name, ok) -> Printf.printf "check  %-44s %s\n" name (if ok then "ok" else "FAILED"))
    (List.rev r.checks);
  let line tag m =
    Printf.printf "%s %-36s %16.6g %-8s n=%d\n" tag m.name m.value m.unit_ m.n
  in
  List.iter (line "metric") (List.rev r.metrics);
  List.iter (line "info  ") (List.rev r.extra);
  Printf.printf "info   %-36s %16.6g %-8s n=%d\n" "error_ratio" (error_ratio r)
    "ratio" r.attempted

let print_json r =
  let metrics =
    List.rev_map
      (fun m ->
        ( m.name,
          Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ] ))
      r.metrics
  in
  print_endline
    (Json.to_string_compact
       (Json.Obj
          [
            ("correct", Json.Bool (correct r));
            ("attempted", Json.Num (float_of_int r.attempted));
            ("failed", Json.Num (float_of_int r.failed));
            ("metrics", Json.Obj metrics);
          ]))

(* Every per-layer metric, with its unit.  A traced run reports all of
   them; a layer that is not on the workload's path reads 0. *)
let layer_catalog =
  [
    ("core.on_ready.ns_per_call", "ns");
    ("core.next_launch.ns_per_call", "ns");
    ("core.next_launch.calls_per_task", "count");
    ("core.next_launch.launch_ratio", "ratio");
    ("util.prefix_min.push_ns", "ns");
    ("util.prefix_min.pop_ns", "ns");
    ("util.float_heap.ns_per_op", "ns");
    ("util.float_heap.ops_per_task", "count");
    ("sim.platform.acquire_release_ns", "ns");
    ("sim.record.ns_per_task", "ns");
    ("sim.record.words_per_task", "words");
    ("sim.loop.self_ns_per_task", "ns");
    ("model.analyze.ns_per_op", "ns");
    ("core.step1.ns_per_op", "ns");
    ("core.step1.probes_per_op", "count");
    ("sim.validate.ns_per_task", "ns");
    ("graph.bounds.us_per_cell", "us");
    ("analysis.cell.ms_p50", "ms");
    ("analysis.cell.ms_p99", "ms");
    ("util.pool.speedup_vs_1", "ratio");
    ("util.pool.idle_pct", "%");
    ("obs.json.decode_ns_per_line", "ns");
    ("obs.json.encode_ns_per_line", "ns");
    ("obs.json.bytes_per_request", "bytes");
    ("service.protocol.decode_ns", "ns");
    ("service.protocol.encode_ns", "ns");
    ("sim.stepper.admit_ns", "ns");
    ("sim.stepper.advance_us_p50", "us");
    ("sim.stepper.advance_us_p99", "us");
    ("service.ping.rtt_us_p50", "us");
    ("service.server.unattributed_us", "us");
    ("gc.minor_words_per_op", "words");
    ("gc.major_words_per_op", "words");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("daemon.gen_lag_us_p99", "us");
    ("ledger.unattributed_pct", "%");
    ("trace.overhead_pct", "%");
  ]

(* [values] maps layer names to [(value, samples)]. *)
let emit_layers r values =
  List.iter
    (fun (name, unit_) ->
      let value, n =
        match List.assoc_opt name values with Some v -> v | None -> (0., 0)
      in
      metric r ~n name unit_ value)
    layer_catalog;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name layer_catalog) then
        invalid_arg ("unknown layer metric " ^ name))
    values
