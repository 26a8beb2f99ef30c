open Moldable_sim
open Moldable_theory

type outcome = { breakpoints : float array; makespan : float }

let exec = Arbitrary_lb.exec_time

let equal_split ~ell =
  let params = Arbitrary_lb.params ~ell in
  let k = params.Arbitrary_lb.k and p = params.Arbitrary_lb.p in
  let breakpoints = Array.make k 0. in
  let now = ref 0. in
  for i = 1 to k do
    let alive = (1 lsl (k - i + 1)) - 1 in
    let base = p / alive in
    now := !now +. exec base;
    breakpoints.(i - 1) <- !now
  done;
  { breakpoints; makespan = breakpoints.(k - 1) }

(* Chains alive in round i (groups >= i), in chain order. *)
let alive_chains (inst : Chains.t) i =
  let acc = ref [] in
  for c = Array.length inst.Chains.group - 1 downto 0 do
    if inst.Chains.group.(c) >= i then acc := c :: !acc
  done;
  !acc

let equal_split_schedule (inst : Chains.t) =
  let p = inst.Chains.p and k = inst.Chains.k in
  let builder = Schedule.builder ~p ~n:(Moldable_graph.Dag.n inst.Chains.dag) in
  let now = ref 0. in
  for i = 1 to k do
    let alive = alive_chains inst i in
    let m = List.length alive in
    let base = p / m and rem = p mod m in
    let cursor = ref 0 in
    List.iteri
      (fun idx c ->
        let alloc = if idx < rem then base + 1 else base in
        let procs = Array.init alloc (fun q -> !cursor + q) in
        cursor := !cursor + alloc;
        let task_id = inst.Chains.chains.(c).(i - 1) in
        Schedule.add builder
          {
            Schedule.task_id;
            start = !now;
            finish = !now +. exec alloc;
            nprocs = alloc;
            procs;
          })
      alive;
    now := !now +. exec base
  done;
  Schedule.finalize builder

let offline_schedule (inst : Chains.t) =
  let p = inst.Chains.p in
  let builder = Schedule.builder ~p ~n:(Moldable_graph.Dag.n inst.Chains.dag) in
  let cursor = ref 0 in
  Array.iteri
    (fun c ids ->
      let i = inst.Chains.group.(c) in
      let alloc = 1 lsl (i - 1) in
      let procs = Array.init alloc (fun q -> !cursor + q) in
      cursor := !cursor + alloc;
      let dur = exec alloc in
      Array.iteri
        (fun pos task_id ->
          Schedule.add builder
            {
              Schedule.task_id;
              start = float_of_int pos *. dur;
              finish = float_of_int (pos + 1) *. dur;
              nprocs = alloc;
              procs;
            })
        ids)
    inst.Chains.chains;
  assert (!cursor = p);
  Schedule.finalize builder

let algorithm2_alloc ~mu ~p =
  let task =
    Moldable_model.Task.make ~id:0
      (Moldable_model.Speedup.Arbitrary { name = "1/(lg p + 1)"; time = exec })
  in
  Moldable_core.Allocator.(allocate (algorithm2 ~mu) ~p task)

let list_scheduling ~alloc ~ell =
  let params = Arbitrary_lb.params ~ell in
  let k = params.Arbitrary_lb.k and p = params.Arbitrary_lb.p in
  if alloc < 1 || alloc > p then
    invalid_arg "Chain_adversary.list_scheduling: alloc out of [1, P]";
  let n_chains = params.Arbitrary_lb.n_chains in
  let quota = Array.init (k + 1) (fun i -> if i = 0 then 0 else 1 lsl (k - i)) in
  let breakpoints = Array.make k nan in
  let duration = exec alloc in
  (* FIFO queue of chains (their completed-task counts) and an event queue of
     running chains; capacity in chains, all allocations being equal. *)
  let capacity = p / alloc in
  let waiting = Queue.create () in
  for _ = 1 to n_chains do
    Queue.add 0 waiting
  done;
  let running = Event_queue.create () in
  let n_running = ref 0 in
  let now = ref 0. in
  let start_round () =
    while (not (Queue.is_empty waiting)) && !n_running < capacity do
      let done_count = Queue.pop waiting in
      Event_queue.add running ~time:(!now +. duration) done_count;
      incr n_running
    done
  in
  start_round ();
  let finished = ref 0 in
  while !finished < n_chains do
    let completions = Event_queue.pop_batch running in
    if completions = 0 then failwith "Chain_adversary.list_scheduling: stalled";
    let t = Event_queue.batch_time running in
    now := t;
    for i = 0 to completions - 1 do
      decr n_running;
      let done_now = Event_queue.batch_payload running i + 1 in
      if quota.(done_now) > 0 then begin
        (* The adversary declares this chain to belong to group
           [done_now] and terminates it. *)
        quota.(done_now) <- quota.(done_now) - 1;
        if quota.(done_now) = 0 then breakpoints.(done_now - 1) <- t;
        incr finished
      end
      else Queue.add done_now waiting
    done;
    start_round ()
  done;
  { breakpoints; makespan = !now }
