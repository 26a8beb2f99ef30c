open Moldable_util
open Moldable_model
open Moldable_graph

type policy = {
  name : string;
  on_ready : now:float -> Task.t -> unit;
  next_launch : now:float -> free:int -> (int * int) option;
}

exception Policy_error of string

type failure_model = {
  model_name : string;
  fails : Rng.t -> task_id:int -> attempt:int -> bool;
}

let never =
  { model_name = "never"; fails = (fun _ ~task_id:_ ~attempt:_ -> false) }

let bernoulli ~q =
  if q < 0. || q >= 1. then
    invalid_arg "Sim_core.bernoulli: q must be in [0, 1)";
  {
    model_name = Printf.sprintf "bernoulli(%.3f)" q;
    fails = (fun rng ~task_id:_ ~attempt:_ -> Rng.bernoulli rng q);
  }

let at_most ~k =
  if k < 0 then invalid_arg "Sim_core.at_most: k must be >= 0";
  {
    model_name = Printf.sprintf "at-most(%d)" k;
    fails = (fun _ ~task_id:_ ~attempt -> attempt <= k);
  }

type result = { schedule : Schedule.t; metrics : Metrics.t }

(* Task states, as int codes so the arena's state array is a plain
   [int array] reusable across runs. *)
let st_unrevealed = 0
let st_available = 1
let st_running = 2
let st_done = 3

(* ------------------------------------------------------------------ arena *)

(* Sentinel for the arena's task array; never revealed or launched (every
   readable slot is overwritten by [Stepper.admit_task] first). *)
let dummy_task = Task.make ~label:"-" ~id:0 (Speedup.Roofline { w = 1.; ptilde = 1 })

(* All per-run storage in one reusable bundle: the event heap, the per-task
   bookkeeping arrays, the incremental task/edge store of the stepper, the
   processor blocks, the recording buffers and the platform.
   [ensure] grows everything to the (p, n) high-water mark; nothing
   shrinks, so a pool domain that sweeps many cells allocates the arrays
   once and reuses them for every run. *)
module Arena = struct
  type t = {
    mutable platform : Platform.t option;
    events : Event_queue.t;
    mutable cap : int; (* current per-task array capacity *)
    mutable state : int array;
    mutable indeg : int array;
    mutable attempt_no : int array;
    (* The latest attempt of each task: its start stamp, its finish stamp
       once it succeeded, its allocation and its processor block, [run_len]
       pairs of [blocks] from index [run_off]. *)
    mutable run_start : float array;
    mutable run_finish : float array;
    mutable run_n : int array;
    mutable run_off : int array;
    mutable run_len : int array;
    mutable outcomes : int array; (* per-batch classification buffer *)
    (* Incremental task/graph store: tasks and release times land here as
       they are admitted, and precedence edges form per-predecessor
       intrusive singly-linked lists threaded through the edge buffers
       ([succ_first]/[succ_last] index into [edge_to]/[edge_next], -1 ends
       a list).  Edges are appended in admission order, so each list is
       ascending in successor id — the same iteration order as
       [Dag.successors]. *)
    mutable tasks : Task.t array;
    (* Equation (1)'s parameters of every admitted task, copied from its
       model so that a launch computes the attempt's duration from two
       flat arrays instead of chasing the task and model records:
       [wdc.(3i)], [wdc.(3i + 1)], [wdc.(3i + 2)] hold w, d, c, and
       [ptilde.(i)] holds ptilde, 0 for a model with no closed form. *)
    mutable wdc : float array;
    mutable ptilde : int array;
    mutable rel : float array; (* release times, 0 when unconstrained *)
    mutable succ_first : int array;
    mutable succ_last : int array;
    edge_to : Growbuf.I.t;
    edge_next : Growbuf.I.t;
    pending : Growbuf.I.t; (* admitted dependency-free, not yet revealed *)
    (* The processor block of every attempt, as [Platform] pairs appended
       at launch; copied into the [Schedule.t] at drain. *)
    blocks : Growbuf.I.t;
    (* Full-mode recording buffers, copied into the result's
       [Metrics.t] at drain: the event trace (packed as
       [Metrics.decode_events] reads it), the block (offset, pair count) of
       every failed attempt, and one ready-depth sample per scheduling
       instant. *)
    tr_times : Growbuf.F.t;
    tr_a : Growbuf.I.t; (* event kind (2 bits) lor (task id lsl 2) *)
    tr_b : Growbuf.I.t; (* second arg, 0 when absent *)
    failed : Growbuf.I.t;
    qd_times : Growbuf.F.t;
    qd_depths : Growbuf.I.t;
    mutable in_use : bool;
        (* A nested/concurrent run on the same arena would corrupt it;
           [Stepper.create] checks the flag and falls back to a private
           arena. *)
  }

  let create () =
    {
      platform = None;
      events = Event_queue.create ();
      cap = 0;
      state = [||];
      indeg = [||];
      attempt_no = [||];
      run_start = [||];
      run_finish = [||];
      run_n = [||];
      run_off = [||];
      run_len = [||];
      outcomes = [||];
      tasks = [||];
      wdc = [||];
      ptilde = [||];
      rel = [||];
      succ_first = [||];
      succ_last = [||];
      edge_to = Growbuf.I.create ();
      edge_next = Growbuf.I.create ();
      pending = Growbuf.I.create ();
      blocks = Growbuf.I.create ();
      tr_times = Growbuf.F.create ();
      tr_a = Growbuf.I.create ();
      tr_b = Growbuf.I.create ();
      failed = Growbuf.I.create ();
      qd_times = Growbuf.F.create ();
      qd_depths = Growbuf.I.create ();
      in_use = false;
    }

  let ensure t ~p ~n =
    if n > t.cap then begin
      let cap = Int.max n (2 * t.cap) in
      t.state <- Array.make cap st_unrevealed;
      t.indeg <- Array.make cap 0;
      t.attempt_no <- Array.make cap 0;
      t.run_start <- Array.make cap 0.;
      t.run_finish <- Array.make cap 0.;
      t.run_n <- Array.make cap 0;
      t.run_off <- Array.make cap 0;
      t.run_len <- Array.make cap 0;
      t.tasks <- Array.make cap dummy_task;
      t.wdc <- Array.make (3 * cap) 0.;
      t.ptilde <- Array.make cap 0;
      t.rel <- Array.make cap 0.;
      t.succ_first <- Array.make cap (-1);
      t.succ_last <- Array.make cap (-1);
      t.cap <- cap
    end;
    (match t.platform with
    | Some pl when Platform.p pl = p -> Platform.reset pl
    | Some _ | None -> t.platform <- Some (Platform.create p))

  (* Content-preserving growth, for admissions past the capacity of a
     stepper that is already running (the platform and everything recorded
     so far are untouched). *)
  let grow t ~n =
    if n > t.cap then begin
      let cap = Int.max (Int.max n 16) (2 * t.cap) in
      let gi dummy a =
        let b = Array.make cap dummy in
        Array.blit a 0 b 0 t.cap;
        b
      in
      t.state <- gi st_unrevealed t.state;
      t.indeg <- gi 0 t.indeg;
      t.attempt_no <- gi 0 t.attempt_no;
      t.run_start <- gi 0. t.run_start;
      t.run_finish <- gi 0. t.run_finish;
      t.run_n <- gi 0 t.run_n;
      t.run_off <- gi 0 t.run_off;
      t.run_len <- gi 0 t.run_len;
      t.tasks <- gi dummy_task t.tasks;
      (let wdc = Array.make (3 * cap) 0. in
       Array.blit t.wdc 0 wdc 0 (3 * t.cap);
       t.wdc <- wdc);
      t.ptilde <- gi 0 t.ptilde;
      t.rel <- gi 0. t.rel;
      t.succ_first <- gi (-1) t.succ_first;
      t.succ_last <- gi (-1) t.succ_last;
      t.cap <- cap
    end

  let outcomes_for t len =
    if Array.length t.outcomes < len then
      t.outcomes <- Array.make (Int.max len (2 * Array.length t.outcomes)) 0;
    t.outcomes

  (* One arena per pool domain: workers are long-lived, so a parallel sweep
     re-allocates nothing per cell. *)
  let dls_key = Domain.DLS.new_key (fun () -> create ())
  let for_current_domain () = Domain.DLS.get dls_key
end

(* The instant a batch or a flush acts at is passed, as a float argument,
   to every reveal, to the launch round and to the policy's callbacks.  A
   float let-bound unboxed is boxed again at each such call, so the loop
   boxes it once and hands the same box to all of them. *)
let[@inline] boxed_once (now : float) = Sys.opaque_identity now

(* Event payload encoding for the int-keyed queue: the low bit tags the
   kind, the rest is the task id.  The side data a completion used to carry
   in a [Complete] record (attempt number, start stamp, processor block)
   lives in the arena's per-task arrays — a task has at most one
   outstanding attempt — and the exact finish stamp is the event's own heap
   key, which a batch keeps per event ([Event_queue.batch_stamp]). *)
let[@inline] enc_reveal i = i lsl 1
let[@inline] enc_complete tid = (tid lsl 1) lor 1

let validate_inputs ?release_times ~max_attempts ~n () =
  (match release_times with
  | None -> ()
  | Some r ->
    if Array.length r <> n then
      invalid_arg "Sim_core.run: release_times length must equal task count";
    Array.iter
      (fun t ->
        if not (Float.is_finite t) || t < 0. then
          invalid_arg "Sim_core.run: release times must be finite and >= 0")
      r);
  if max_attempts < 1 then
    invalid_arg "Sim_core.run: max_attempts must be >= 1"

(* ---------------------------------------------------------------- stepper *)

(* The re-entrant form of the event loop: all run state lives in a record
   instead of closures, tasks can be admitted after the clock has started,
   and the virtual clock advances in bounded steps.  The batch [run] below
   is a thin loop over this module — create, admit every task of the DAG
   in id order, drain — and the differential suite pins that composition
   bit-identical to the test oracle [Reference.run]. *)
module Stepper = struct
  type t = {
    policy : policy;
    p : int;
    lean : bool;
        (* The effective flag: a live tracer forces full recording, since
           its spans are the recording's attempts. *)
    traced : bool;
    tracer : Tracer.t;
    registry : Moldable_obs.Registry.t;
    failures : failure_model;
    max_attempts : int;
    rng : Rng.t;
    arena : Arena.t;
    platform : Platform.t;
    events : Event_queue.t;
    counters : Metrics.counters;
    (* One-cell float arrays, not mutable float fields: in a mixed record a
       float-field store allocates a box, a float-array store does not, and
       both cells are written on the hot path. *)
    ms : float array; (* makespan so far *)
    now_cell : float array; (* current virtual time *)
    mutable n : int; (* admitted tasks; the next admission index *)
    mutable init_hi : int; (* arena slots [0, init_hi) are initialized *)
    mutable completed : int;
    mutable ready_count : int;
    mutable n_running : int;
    mutable pending_lo : int; (* consumed prefix of [arena.pending] *)
    mutable started : bool;
    mutable closed : bool; (* drained or abandoned *)
  }

  let create ?(seed = 0) ?(max_attempts = max_int) ?(failures = never)
      ?(tracer = Tracer.null) ?(registry = Moldable_obs.Registry.null) ?arena
      ?(lean = false) ?(capacity = 0) ~p policy =
    if max_attempts < 1 then
      invalid_arg "Sim_core.Stepper.create: max_attempts must be >= 1";
    if capacity < 0 then
      invalid_arg "Sim_core.Stepper.create: capacity must be >= 0";
    let traced = Tracer.enabled tracer in
    let a =
      match arena with
      | Some a when not a.Arena.in_use -> a
      | Some _ | None -> Arena.create ()
    in
    a.Arena.in_use <- true;
    (try Arena.ensure a ~p ~n:capacity
     with e ->
       a.Arena.in_use <- false;
       raise e);
    Event_queue.clear a.Arena.events;
    Growbuf.I.clear a.Arena.edge_to;
    Growbuf.I.clear a.Arena.edge_next;
    Growbuf.I.clear a.Arena.pending;
    Growbuf.I.clear a.Arena.blocks;
    Growbuf.F.clear a.Arena.tr_times;
    Growbuf.I.clear a.Arena.tr_a;
    Growbuf.I.clear a.Arena.tr_b;
    Growbuf.I.clear a.Arena.failed;
    Growbuf.F.clear a.Arena.qd_times;
    Growbuf.I.clear a.Arena.qd_depths;
    {
      policy;
      p;
      lean = lean && not traced;
      traced;
      tracer;
      registry;
      failures;
      max_attempts;
      rng = Rng.create seed;
      arena = a;
      platform = Option.get a.Arena.platform;
      events = a.Arena.events;
      counters = Metrics.make_counters ();
      ms = Array.make 1 0.;
      now_cell = Array.make 1 0.;
      n = 0;
      init_hi = 0;
      completed = 0;
      ready_count = 0;
      n_running = 0;
      pending_lo = 0;
      started = false;
      closed = false;
    }

  (* Grow (contents-preserving) and initialize arena slots up to [j]: an
     admission touches its own slot and, through forward dependency
     references, possibly slots of tasks not yet admitted. *)
  let init_through st j =
    let a = st.arena in
    if j >= a.Arena.cap then Arena.grow a ~n:(j + 1);
    if j >= st.init_hi then begin
      let state = a.Arena.state
      and indeg = a.Arena.indeg
      and attempt_no = a.Arena.attempt_no
      and succ_first = a.Arena.succ_first
      and succ_last = a.Arena.succ_last
      and rel = a.Arena.rel in
      for k = st.init_hi to j do
        state.(k) <- st_unrevealed;
        indeg.(k) <- 0;
        attempt_no.(k) <- 0;
        succ_first.(k) <- -1;
        succ_last.(k) <- -1;
        rel.(k) <- 0.
      done;
      st.init_hi <- j + 1
    end

  (* Validate a whole dependency list before mutating anything, so a
     rejected admission leaves the stepper untouched.  Top-level (not
     nested in [admit]) so the admission hot path builds no closures. *)
  let rec check_deps i prev hi = function
    | [] -> hi
    | d :: rest ->
      if d <= prev then
        invalid_arg
          "Sim_core.Stepper.admit_task: deps must be strictly increasing \
           task ids";
      if d = i then
        invalid_arg
          "Sim_core.Stepper.admit_task: a task cannot depend on itself";
      check_deps i d (if d > hi then d else hi) rest

  (* Register the precedence edges of task [i].  A dependency on an
     already-completed task is satisfied and registers nothing; every other
     dependency appends an edge to its predecessor's intrusive successor
     list, which therefore stays ascending in successor id (admissions
     are).  Forward references (to tasks not yet admitted) are allowed:
     the slot is initialized by [init_through] and the edge fires when the
     predecessor eventually completes. *)
  let rec register_deps a i indeg = function
    | [] -> indeg
    | d :: rest ->
      if a.Arena.state.(d) = st_done then register_deps a i indeg rest
      else begin
        let e = Growbuf.I.length a.Arena.edge_to in
        Growbuf.I.push a.Arena.edge_to i;
        Growbuf.I.push a.Arena.edge_next (-1);
        (let last = a.Arena.succ_last.(d) in
         if last >= 0 then Growbuf.I.set a.Arena.edge_next last e
         else a.Arena.succ_first.(d) <- e);
        a.Arena.succ_last.(d) <- e;
        register_deps a i (indeg + 1) rest
      end

  (* The allocation-free admission path [run] loops over (plain arguments:
     an optional-argument call would box a [Some] per task). *)
  let admit st rel deps task =
    if st.closed then
      invalid_arg "Sim_core.Stepper.admit_task: the stepper is closed";
    if not (Float.is_finite rel) || rel < 0. then
      invalid_arg
        "Sim_core.Stepper.admit_task: release time must be finite and >= 0";
    let i = st.n in
    if task.Task.id <> i then
      invalid_arg
        (Printf.sprintf
           "Sim_core.Stepper.admit_task: task id %d does not match its \
            admission index %d"
           task.Task.id i);
    let hi = check_deps i (-1) i deps in
    init_through st hi;
    let a = st.arena in
    a.Arena.tasks.(i) <- task;
    a.Arena.ptilde.(i) <-
      Speedup.store_closed task.Task.speedup a.Arena.wdc (3 * i);
    a.Arena.rel.(i) <- rel;
    let indeg = register_deps a i 0 deps in
    a.Arena.indeg.(i) <- indeg;
    st.n <- i + 1;
    if indeg = 0 then Growbuf.I.push a.Arena.pending i;
    i

  let admit_task st ?release_time ?(deps = []) task =
    admit st
      (match release_time with None -> 0. | Some r -> r)
      deps task

  let record_ev st now kind arg1 arg2 =
    let a = st.arena in
    Growbuf.F.push a.Arena.tr_times now;
    Growbuf.I.push a.Arena.tr_a (kind lor (arg1 lsl 2));
    Growbuf.I.push a.Arena.tr_b arg2

  let fail st fmt =
    Printf.ksprintf
      (fun s -> raise (Policy_error (st.policy.name ^ ": " ^ s)))
      fmt

  let reveal st now i =
    let a = st.arena in
    a.Arena.state.(i) <- st_available;
    st.ready_count <- st.ready_count + 1;
    if not st.lean then record_ev st now Metrics.kind_ready i 0;
    if st.traced then
      Tracer.record_instant st.tracer ~time:now ~kind:Tracer.Ready ~subject:i;
    st.policy.on_ready ~now a.Arena.tasks.(i)

  (* A task whose precedence constraints are satisfied at [now] is revealed
     immediately, or scheduled as a future Reveal if not yet released. *)
  let reveal_or_defer st now i =
    let r = st.arena.Arena.rel.(i) in
    if r <= now then reveal st now i
    else begin
      if st.traced then
        Tracer.record_instant st.tracer ~time:now ~kind:Tracer.Deferred
          ~subject:i;
      Event_queue.add st.events ~time:r (enc_reveal i)
    end

  let rec launch_round_untimed st now =
    let free = Platform.free_count st.platform in
    if free > 0 then
      match st.policy.next_launch ~now ~free with
      | None ->
        st.counters.Metrics.stall_checks <-
          st.counters.Metrics.stall_checks + 1;
        if st.traced && st.ready_count > 0 then
          Tracer.record_instant st.tracer ~time:now ~kind:Tracer.Stall
            ~subject:(-1)
      | Some (tid, nprocs) ->
        let a = st.arena in
        if tid < 0 || tid >= st.n then fail st "launched unknown task %d" tid;
        (if a.Arena.state.(tid) <> st_available then
           if a.Arena.state.(tid) = st_unrevealed then
             fail st "launched unrevealed task %d" tid
           else if a.Arena.state.(tid) = st_running then
             fail st "launched running task %d" tid
           else fail st "launched completed task %d" tid);
        if nprocs < 1 then fail st "task %d launched on %d procs" tid nprocs;
        if nprocs > free then
          fail st "task %d needs %d procs but only %d are free" tid nprocs
            free;
        (* The attempt cap is checked before any resource is acquired or
           queued, so a violation leaves the platform and event queue
           untouched. *)
        if a.Arena.attempt_no.(tid) >= st.max_attempts then
          failwith
            (Printf.sprintf
               "Sim_core.run: task %d reached the attempt limit (%d \
                attempts, all failed) under failure model %s"
               tid st.max_attempts st.failures.model_name);
        let blocks = a.Arena.blocks in
        let off = Growbuf.I.length blocks in
        Platform.acquire_pairs st.platform nprocs blocks;
        let duration =
          let ptilde = a.Arena.ptilde.(tid) in
          if ptilde > 0 then
            Speedup.flat_time a.Arena.wdc (3 * tid) ~ptilde nprocs
          else Task.time a.Arena.tasks.(tid) nprocs
        in
        a.Arena.state.(tid) <- st_running;
        st.ready_count <- st.ready_count - 1;
        st.n_running <- st.n_running + 1;
        a.Arena.attempt_no.(tid) <- a.Arena.attempt_no.(tid) + 1;
        st.counters.Metrics.launches <- st.counters.Metrics.launches + 1;
        if not st.lean then record_ev st now Metrics.kind_start tid nprocs;
        a.Arena.run_start.(tid) <- now;
        a.Arena.run_n.(tid) <- nprocs;
        a.Arena.run_off.(tid) <- off;
        a.Arena.run_len.(tid) <- (Growbuf.I.length blocks - off) lsr 1;
        Event_queue.add st.events ~time:(now +. duration) (enc_complete tid);
        launch_round_untimed st now

  let launch_round st now =
    if st.traced then
      Tracer.timed st.tracer Launch_round (fun () ->
          launch_round_untimed st now)
    else launch_round_untimed st now

  let sample_depth st now =
    if not st.lean then begin
      Growbuf.F.push st.arena.Arena.qd_times now;
      Growbuf.I.push st.arena.Arena.qd_depths st.ready_count
    end

  let rec unlock_edges st now e =
    if e >= 0 then begin
      let a = st.arena in
      let j = Growbuf.I.get a.Arena.edge_to e in
      a.Arena.indeg.(j) <- a.Arena.indeg.(j) - 1;
      if a.Arena.indeg.(j) = 0 then reveal_or_defer st now j;
      unlock_edges st now (Growbuf.I.get a.Arena.edge_next e)
    end

  (* One scheduling instant, in the same three phases as the reference
     loop.  Precondition: [Event_queue.pop_batch] just returned [blen > 0]. *)
  let process_batch st blen =
    let events = st.events in
    let now = boxed_once (Event_queue.batch_time events) in
    st.now_cell.(0) <- now;
    let a = st.arena in
    st.counters.Metrics.batches <- st.counters.Metrics.batches + 1;
    st.counters.Metrics.events <- st.counters.Metrics.events + blen;
    let outcomes = Arena.outcomes_for a blen in
    let attempt_no = a.Arena.attempt_no
    and state = a.Arena.state
    and run_off = a.Arena.run_off
    and run_len = a.Arena.run_len in
    (* Phase 1 — completions: release the processors of every attempt in
       the batch and classify it (consuming the failure RNG in batch
       order), so the policy later sees the full free count of this
       instant. *)
    for k = 0 to blen - 1 do
      let payload = Event_queue.batch_payload events k in
      if payload land 1 = 1 then begin
        let tid = payload lsr 1 in
        let stamp = Event_queue.batch_stamp events k in
        let attempt = attempt_no.(tid) in
        let off = run_off.(tid) and len = run_len.(tid) in
        let failed = st.failures.fails st.rng ~task_id:tid ~attempt in
        st.n_running <- st.n_running - 1;
        if now > st.ms.(0) then st.ms.(0) <- now;
        Platform.release_pairs st.platform (Growbuf.I.data a.Arena.blocks)
          ~off ~len;
        if failed then begin
          st.counters.Metrics.retries <- st.counters.Metrics.retries + 1;
          (* The trace records the batch instant as the attempt's end (the
             instant its outcome became known); the schedule keeps the
             exact stamp. *)
          if not st.lean then begin
            record_ev st now Metrics.kind_failed tid attempt;
            Growbuf.I.push a.Arena.failed off;
            Growbuf.I.push a.Arena.failed len
          end;
          outcomes.(k) <- 1
        end
        else begin
          state.(tid) <- st_done;
          st.completed <- st.completed + 1;
          if not st.lean then record_ev st now Metrics.kind_finish tid 0;
          a.Arena.run_finish.(tid) <- stamp;
          outcomes.(k) <- 0
        end
      end
      else outcomes.(k) <- 2
    done;
    (* Phase 2 — reveals, in batch order: failed attempts go back to the
       policy (a stateless allocator naturally re-allocates them) and
       release-time reveals fire. *)
    for k = 0 to blen - 1 do
      if outcomes.(k) <> 0 then
        reveal st now (Event_queue.batch_payload events k lsr 1)
    done;
    (* Phase 3 — precedence: successors unlocked by this batch's successful
       completions, still in batch order. *)
    for k = 0 to blen - 1 do
      if outcomes.(k) = 0 then
        unlock_edges st now
          a.Arena.succ_first.(Event_queue.batch_payload events k lsr 1)
    done;
    launch_round st now;
    sample_depth st now

  (* Reveal every admitted-but-unprocessed dependency-free task (in
     admission order), then run a launch round at the current instant —
     exactly the source flush the batch run performs at time 0. *)
  let flush_pending_and_launch st =
    let a = st.arena in
    let len = Growbuf.I.length a.Arena.pending in
    let now = boxed_once st.now_cell.(0) in
    let i = ref st.pending_lo in
    st.pending_lo <- len;
    while !i < len do
      reveal_or_defer st now (Growbuf.I.get a.Arena.pending !i);
      incr i
    done;
    launch_round st now;
    sample_depth st now

  let start st =
    if not st.started then begin
      st.started <- true;
      flush_pending_and_launch st
    end

  (* After the clock has started, a flush only happens when a new
     dependency-free admission is waiting: batch-equivalent drives never
     trigger it, so the launch-round/depth-sample stream is untouched. *)
  let flush_if_pending st =
    if st.pending_lo < Growbuf.I.length st.arena.Arena.pending then
      flush_pending_and_launch st

  let advance st ~until =
    if st.closed then
      invalid_arg "Sim_core.Stepper.advance: the stepper is closed";
    if Float.is_nan until then
      invalid_arg "Sim_core.Stepper.advance: until must not be NaN";
    start st;
    flush_if_pending st;
    let batches = ref 0 in
    let rec loop () =
      if Event_queue.due st.events ~until then begin
        let blen = Event_queue.pop_batch st.events in
        if blen > 0 then begin
          process_batch st blen;
          incr batches;
          loop ()
        end
      end
    in
    loop ();
    if until > st.now_cell.(0) then st.now_cell.(0) <- until;
    !batches

  (* The result owns copies of the recording buffers, never the arena's
     storage, so later runs on the arena leave it untouched. *)
  let finalize st =
    let a = st.arena in
    let n = st.n in
    let schedule =
      Schedule.of_blocks ~p:st.p
        ~starts:(Array.sub a.Arena.run_start 0 n)
        ~finishes:(Array.sub a.Arena.run_finish 0 n)
        ~counts:(Array.sub a.Arena.run_n 0 n)
        ~offsets:(Array.sub a.Arena.run_off 0 n)
        ~lengths:(Array.sub a.Arena.run_len 0 n)
        ~pairs:(Growbuf.I.to_array a.Arena.blocks)
    in
    let metrics =
      if st.lean then Metrics.lean ~schedule ~counters:st.counters
      else
        Metrics.make ~schedule ~counters:st.counters
          ~times:(Growbuf.F.to_array a.Arena.tr_times)
          ~codes:(Growbuf.I.to_array a.Arena.tr_a)
          ~args:(Growbuf.I.to_array a.Arena.tr_b)
          ~blocks:schedule.Schedule.pairs
          ~failed:(Growbuf.I.to_array a.Arena.failed)
          ~depth_times:(Growbuf.F.to_array a.Arena.qd_times)
          ~depths:(Growbuf.I.to_array a.Arena.qd_depths)
    in
    (* Publish the run counters to an attached telemetry registry in one
       shot: the totals are identical to incrementing per event, and the
       hot loop stays untouched (a [Registry.null] run skips this block
       entirely). *)
    (let module R = Moldable_obs.Registry in
     if R.enabled st.registry then begin
       let c name help v =
         R.incr_by (R.counter st.registry ~name ~help) (float_of_int v)
       in
       c "moldable_sim_events" "Simulation events processed"
         st.counters.Metrics.events;
       c "moldable_sim_batches" "Simultaneous-completion batches processed"
         st.counters.Metrics.batches;
       c "moldable_sim_launches" "Task attempts launched"
         st.counters.Metrics.launches;
       c "moldable_sim_retries" "Failed attempts re-queued for retry"
         st.counters.Metrics.retries;
       c "moldable_sim_stall_checks"
         "Launch rounds the policy ended by declining to launch"
         st.counters.Metrics.stall_checks;
       c "moldable_sim_runs" "Completed simulation runs" 1
     end);
    { schedule; metrics }

  (* Close the stepper and hand the arena back.  The arena outlives the run
     (a domain's arena lives as long as the domain), so it drops its
     references to the run's tasks: they then die with the result instead
     of with the arena's next run. *)
  let close st =
    let a = st.arena in
    st.closed <- true;
    Array.fill a.Arena.tasks 0 st.init_hi dummy_task;
    a.Arena.in_use <- false

  let drain st =
    if st.closed then
      invalid_arg "Sim_core.Stepper.drain: the stepper is closed";
    Fun.protect
      ~finally:(fun () -> close st)
      (fun () ->
        start st;
        flush_if_pending st;
        let n = st.n in
        let event_loop () =
          while st.completed < n do
            let blen = Event_queue.pop_batch st.events in
            if blen = 0 then
              fail st
                "stalled: %d of %d tasks completed but nothing is running"
                st.completed n
            else process_batch st blen
          done
        in
        if st.traced then Tracer.timed st.tracer Event_loop event_loop
        else event_loop ();
        finalize st)

  let abandon st = if not st.closed then close st

  (* ------------------------------------------------------- introspection *)

  let now st = st.now_cell.(0)
  let started st = st.started
  let closed st = st.closed
  let admitted st = st.n
  let completed st = st.completed
  let ready st = st.ready_count
  let running st = st.n_running
  let free_procs st = Platform.free_count st.platform
  let makespan_so_far st = st.ms.(0)
  let next_event_time st = Event_queue.next_time st.events
  let n_events st = Growbuf.F.length st.arena.Arena.tr_times

  let events_from st k0 =
    let a = st.arena in
    Metrics.decode_events ~len:(n_events st)
      ~time:(Growbuf.F.get a.Arena.tr_times)
      ~code:(Growbuf.I.get a.Arena.tr_a) ~arg:(Growbuf.I.get a.Arena.tr_b) k0
end

let run ?release_times ?(seed = 0) ?(max_attempts = max_int)
    ?(failures = never) ?(tracer = Tracer.null)
    ?(registry = Moldable_obs.Registry.null) ?arena ?(lean = false) ~p policy
    dag =
  let n = Dag.n dag in
  validate_inputs ?release_times ~max_attempts ~n ();
  (* A busy domain arena (a run nested in a policy callback) makes
     [Stepper.create] fall back to a private one. *)
  let arena =
    match arena with Some a -> a | None -> Arena.for_current_domain ()
  in
  let st =
    Stepper.create ~seed ~max_attempts ~failures ~tracer ~registry ~arena
      ~lean ~capacity:n ~p policy
  in
  match
    (match release_times with
    | None ->
      for i = 0 to n - 1 do
        ignore
          (Stepper.admit st 0. (Dag.predecessors dag i) (Dag.task dag i)
            : int)
      done
    | Some r ->
      for i = 0 to n - 1 do
        ignore
          (Stepper.admit st r.(i) (Dag.predecessors dag i) (Dag.task dag i)
            : int)
      done);
    Stepper.drain st
  with
  | result -> result
  | exception e ->
    Stepper.abandon st;
    raise e
