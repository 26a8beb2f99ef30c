(* Workload batch_wide: 10^5 independent tasks mixing the four closed-form
   speedup models on P = 256, one full-recording [Sim_core.run] of
   Algorithm 1 per operation.  The whole DAG is ready at time 0, so the
   ready queue, the event heap, the platform and the run's recording carry
   the cost. *)

open Moldable_util
open Moldable_model
open Moldable_graph
open Moldable_sim
open Moldable_workloads

let p = 256
let n_tasks = 100_000

let kinds =
  [|
    Speedup.Kind_roofline;
    Speedup.Kind_communication;
    Speedup.Kind_amdahl;
    Speedup.Kind_general;
  |]

let make_dag seed =
  let rng = Rng.create seed in
  let tasks =
    List.init n_tasks (fun id ->
        let kind = kinds.(Rng.int rng (Array.length kinds)) in
        Task.make ~id (Params.random rng kind))
  in
  Dag.create ~tasks ~edges:[]

let run ?(lean = false) ?(wrap = Fun.id) dag =
  Sim_core.run ~lean ~p (wrap (Layers.algorithm1 ~p ())) dag

let same_placements a b =
  let n = Schedule.n a in
  n = Schedule.n b
  &&
  let ok = ref true in
  for i = 0 to n - 1 do
    let x = Schedule.placement a i and y = Schedule.placement b i in
    if
      x.Schedule.start <> y.Schedule.start
      || x.Schedule.finish <> y.Schedule.finish
      || x.Schedule.nprocs <> y.Schedule.nprocs
      || x.Schedule.procs <> y.Schedule.procs
    then ok := false
  done;
  !ok

(* One timed run: wall seconds, minor and major words allocated. *)
let timed f =
  let g0 = Mono.gc () in
  let t0 = Mono.now () in
  let r = f () in
  let t1 = Mono.now () in
  let g = Mono.gc_diff g0 (Mono.gc ()) in
  (r, float_of_int (t1 - t0) *. 1e-9, g)

(* Input generation plus one warm-up run, repeated; the median is
   [setup_s]. *)
let setup ~seed ~reps =
  let samples = Array.make reps 0. in
  let dag = ref None in
  for k = 0 to reps - 1 do
    let t0 = Mono.now () in
    let d = make_dag seed in
    ignore (Sys.opaque_identity (run d));
    samples.(k) <- Mono.seconds_since t0;
    dag := Some d
  done;
  (Option.get !dag, samples)

let check_result r dag (full : Sim_core.result) =
  Outcome.check r "batch_wide.validate"
    (Result.is_ok (Validate.check ~dag full.Sim_core.schedule));
  let lean = run ~lean:true dag in
  Outcome.check r "batch_wide.lean_placements_equal"
    (same_placements full.Sim_core.schedule lean.Sim_core.schedule)

let untraced r ~seed ~seconds =
  let dag, setup_samples = setup ~seed ~reps:5 in
  Outcome.metric r ~n:5 "setup_s" "s" (Mono.median setup_samples);
  let times = ref [] and words = ref [] and last = ref None in
  let t_end = Mono.now () + int_of_float (seconds *. 1e9) in
  while Mono.now () < t_end || List.length !times < 3 do
    let res, dt, g = timed (fun () -> run dag) in
    times := dt :: !times;
    words := (g.Mono.minor /. float_of_int n_tasks, g.Mono.major /. float_of_int n_tasks) :: !words;
    last := Some res
  done;
  let times = Array.of_list !times in
  let n = Array.length times in
  Outcome.ops r ~attempted:n ~failed:0;
  check_result r dag (Option.get !last);
  let med = Mono.median times in
  Outcome.metric r ~n "throughput_per_s" "1/s" (float_of_int n_tasks /. med);
  Outcome.metric r "peak_heap_mb" "MB" (Mono.peak_heap_mb ());
  Outcome.metric r ~n "lat_p50_us" "us" (med *. 1e6);
  let tail_q, tail = Mono.tail times in
  Outcome.metric r ~n "lat_tail_us" "us" (tail *. 1e6);
  let minor = Mono.median (Array.of_list (List.map fst !words)) in
  let major = Mono.median (Array.of_list (List.map snd !words)) in
  Outcome.extra r ~n "tasks_per_s" "1/s" (float_of_int n_tasks /. med);
  Outcome.extra r ~n "words_per_task" "words" minor;
  Outcome.extra r ~n "major_words_per_task" "words" major;
  Outcome.note r "one operation = one full Sim_core.run of %d tasks on P = %d; lat_tail_us is p%g of %d runs"
    n_tasks p tail_q n

let traced r ~seed ~seconds =
  let dag, _ = setup ~seed ~reps:1 in
  let n = float_of_int n_tasks in
  let plain = ref [] and wrapped = ref [] and lean = ref [] in
  let plain_words = ref [] and lean_words = ref [] in
  let pr = Layers.probe () in
  let sp_run = Mono.Span.intern "sim.run" in
  let last = ref None in
  let gc_runs = ref [] in
  let t_end = Mono.now () + int_of_float (seconds *. 1e9) in
  while Mono.now () < t_end || List.length !plain < 3 do
    let res, dt, g = timed (fun () -> run dag) in
    plain := dt :: !plain;
    plain_words := g.Mono.minor :: !plain_words;
    gc_runs := g :: !gc_runs;
    last := Some res;
    let t0 = Mono.now () in
    let parent = Mono.Span.add sp_run t0 t0 in
    let _, dt, _ = timed (fun () -> run ~wrap:(Layers.wrap ~parent pr) dag) in
    wrapped := dt :: !wrapped;
    let _, dt, g = timed (fun () -> run ~lean:true dag) in
    lean := dt :: !lean;
    lean_words := g.Mono.minor :: !lean_words
  done;
  let runs = List.length !plain in
  Outcome.ops r ~attempted:(3 * runs) ~failed:0;
  let full = Option.get !last in
  check_result r dag full;
  let med l = Mono.median (Array.of_list l) in
  let t_plain = med !plain and t_wrapped = med !wrapped and t_lean = med !lean in
  (* Ready-queue replay from one logged run. *)
  let logged = Layers.probe ~log:true () in
  let res = run ~wrap:(Layers.wrap logged) dag in
  let pm = Layers.new_replay () in
  Layers.replay_prefix_min pm ~p ~schedule:res.Sim_core.schedule
    (Option.get logged.Layers.log);
  let ev = Layers.new_event_replay () in
  Layers.replay_events ev ~p ~schedule:res.Sim_core.schedule;
  Outcome.check r "batch_wide.replay_feasible" (ev.Layers.replay_errors = 0);
  let an = Layers.new_analysis () in
  Layers.measure_analysis an ~p (Dag.tasks dag);
  let t0 = Mono.now () in
  ignore (Sys.opaque_identity (Validate.check ~dag full.Sim_core.schedule));
  let validate_ns = float_of_int (Mono.now () - t0) in
  let wr = float_of_int runs in
  let ready_per_task = float_of_int pr.Layers.ready_ns /. wr /. n in
  let launch_per_task = float_of_int pr.Layers.launch_ns /. wr /. n in
  let events = full.Sim_core.metrics.Metrics.counters.Metrics.events in
  let heap_ns = Layers.per ev.Layers.heap_ns ev.Layers.heap_ops in
  let heap_ops_per_task = 2. *. float_of_int events /. n in
  let plat_ns = Layers.per ev.Layers.platform_ns ev.Layers.platform_pairs in
  let record_ns = (t_plain -. t_lean) *. 1e9 /. n in
  let plain_ns = t_plain *. 1e9 /. n in
  let attributed =
    ready_per_task +. launch_per_task +. (heap_ns *. heap_ops_per_task) +. plat_ns
    +. record_ns
  in
  let g_sum f = List.fold_left (fun a g -> a +. f g) 0. !gc_runs in
  Outcome.emit_layers r
    [
      ("core.on_ready.ns_per_call", (Layers.per pr.Layers.ready_ns pr.Layers.ready_calls, pr.Layers.ready_calls));
      ("core.next_launch.ns_per_call", (Layers.per pr.Layers.launch_ns pr.Layers.launch_calls, pr.Layers.launch_calls));
      ("core.next_launch.calls_per_task", (float_of_int pr.Layers.launch_calls /. wr /. n, runs));
      ("core.next_launch.launch_ratio", (Layers.per pr.Layers.launches pr.Layers.launch_calls, pr.Layers.launch_calls));
      ("util.prefix_min.push_ns", (Layers.per pm.Layers.push_ns pm.Layers.pushes, pm.Layers.pushes));
      ("util.prefix_min.pop_ns", (Layers.per pm.Layers.pop_ns pm.Layers.pops, pm.Layers.pops));
      ("util.float_heap.ns_per_op", (heap_ns, ev.Layers.heap_ops));
      ("util.float_heap.ops_per_task", (heap_ops_per_task, 1));
      ("sim.platform.acquire_release_ns", (plat_ns, ev.Layers.platform_pairs));
      ("sim.record.ns_per_task", (record_ns, runs));
      ("sim.record.words_per_task", ((med !plain_words -. med !lean_words) /. n, runs));
      ("sim.loop.self_ns_per_task", (plain_ns -. ready_per_task -. launch_per_task, runs));
      ("model.analyze.ns_per_op", (Layers.per an.Layers.analyze_ns an.Layers.analyzed, an.Layers.analyzed));
      ("core.step1.ns_per_op", (Layers.per an.Layers.step1_ns an.Layers.step1_calls, an.Layers.step1_calls));
      ("core.step1.probes_per_op", (Layers.per an.Layers.probes an.Layers.step1_calls, an.Layers.step1_calls));
      ("sim.validate.ns_per_task", (validate_ns /. n, 1));
      ("gc.minor_words_per_op", (g_sum (fun g -> g.Mono.minor) /. wr /. n, runs));
      ("gc.major_words_per_op", (g_sum (fun g -> g.Mono.major) /. wr /. n, runs));
      ("gc.minor_collections", (g_sum (fun g -> float_of_int g.Mono.minor_gcs) /. wr, runs));
      ("gc.major_collections", (g_sum (fun g -> float_of_int g.Mono.major_gcs) /. wr, runs));
      ("ledger.unattributed_pct", (100. *. (plain_ns -. attributed) /. plain_ns, runs));
      ("trace.overhead_pct", (100. *. (t_wrapped -. t_plain) /. t_plain, runs));
    ];
  Outcome.extra r ~n:runs "full_run_s" "s" t_plain;
  Outcome.extra r ~n:runs "lean_run_s" "s" t_lean;
  Outcome.extra r ~n:runs "full_over_lean" "ratio" (t_plain /. t_lean);
  Outcome.extra r ~n:runs "lean_words_per_task" "words" (med !lean_words /. n);
  Outcome.note r "gc.*_per_op are per simulated task; gc.*_collections are per full run";
  Outcome.note r
    "ledger: callbacks %.0f + heap %.0f + platform %.0f + recording %.0f of %.0f ns per task"
    (ready_per_task +. launch_per_task) (heap_ns *. heap_ops_per_task) plat_ns record_ns plain_ns
