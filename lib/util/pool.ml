(* A fixed set of worker domains and a chunked bulk-operation queue.

   One bulk operation (a "job") is active at a time; its items are claimed
   chunk-by-chunk through an atomic cursor, so idle domains steal load from
   slow ones without any per-item locking.  The pool mutex only guards the
   job lifecycle (installation, completion counting, failure capture). *)

type job = {
  body : int -> int -> unit;
      (* [body lo hi] processes item indices [lo, hi); never raises — the
         wrapper in [exec_chunks] captures exceptions into [failed]. *)
  total : int;
  chunk : int;
  n_chunks : int;
  next : int Atomic.t; (* next chunk to claim *)
  mutable completed : int; (* chunks finished; guarded by the pool mutex *)
  mutable failed : (exn * Printexc.raw_backtrace) option;
      (* first captured exception; guarded by the pool mutex *)
}

(* Telemetry handles, present only when the pool was created against a live
   registry — [None] keeps the uninstrumented hot path branch-free. *)
type obs = {
  o_depth : Moldable_obs.Registry.gauge; (* chunks not yet claimed *)
  o_busy : Moldable_obs.Registry.gauge; (* domains inside a chunk body *)
  o_latency : Moldable_obs.Registry.histogram; (* seconds per chunk body *)
}

type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t; (* a job was installed, or the pool closed *)
  finished : Condition.t; (* the current job completed its last chunk *)
  submit : Mutex.t; (* serializes bulk operations *)
  obs : obs option;
  mutable current : job option;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

(* True on a domain currently executing chunks (workers always; the caller
   while it participates).  Nested bulk operations check it and degrade to
   sequential execution instead of deadlocking on [submit]. *)
let inside_key = Domain.DLS.new_key (fun () -> false)

let inside () = Domain.DLS.get inside_key

let exec_chunks t job =
  let rec loop () =
    let c = Atomic.fetch_and_add job.next 1 in
    if c < job.n_chunks then begin
      (* Benign race on [failed]: at worst a chunk runs after a failure
         elsewhere; its results are discarded by the re-raise anyway. *)
      (if Option.is_none job.failed then begin
         let run () =
           try
             job.body (c * job.chunk)
               (Int.min job.total ((c + 1) * job.chunk))
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             Mutex.lock t.mutex;
             if Option.is_none job.failed then job.failed <- Some (e, bt);
             Mutex.unlock t.mutex
         in
         match t.obs with
         | None -> run ()
         | Some o ->
           let module R = Moldable_obs.Registry in
           R.set o.o_depth (float_of_int (Int.max 0 (job.n_chunks - c - 1)));
           R.add o.o_busy 1.;
           let t0 = Clock.now () in
           run ();
           R.observe o.o_latency (Clock.now () -. t0);
           R.add o.o_busy (-1.)
       end);
      Mutex.lock t.mutex;
      job.completed <- job.completed + 1;
      if job.completed = job.n_chunks then Condition.broadcast t.finished;
      Mutex.unlock t.mutex;
      loop ()
    end
  in
  loop ()

let worker_loop t =
  Domain.DLS.set inside_key true;
  let rec loop () =
    Mutex.lock t.mutex;
    let rec await () =
      if t.closed then None
      else
        match t.current with
        | Some job when Atomic.get job.next < job.n_chunks -> Some job
        | _ ->
          Condition.wait t.work t.mutex;
          await ()
    in
    match await () with
    | None -> Mutex.unlock t.mutex
    | Some job ->
      Mutex.unlock t.mutex;
      exec_chunks t job;
      loop ()
  in
  loop ()

let create ?(jobs = 1) ?(registry = Moldable_obs.Registry.null) () =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let obs =
    let module R = Moldable_obs.Registry in
    if not (R.enabled registry) then None
    else
      Some
        {
          o_depth =
            R.gauge registry ~name:"moldable_pool_queue_depth"
              ~help:"Work-queue chunks not yet claimed by a domain";
          o_busy =
            R.gauge registry ~name:"moldable_pool_domains_busy"
              ~help:"Domains currently executing a chunk body";
          o_latency =
            R.histogram registry ~name:"moldable_pool_task_latency_seconds"
              ~help:"Wall-clock seconds per claimed chunk of pool work";
        }
  in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      submit = Mutex.create ();
      obs;
      current = None;
      closed = false;
      workers = [];
    }
  in
  t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let sequential = create ()
let jobs t = t.jobs

let shutdown t =
  Mutex.lock t.mutex;
  let ws = t.workers in
  t.closed <- true;
  t.workers <- [];
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join ws

let with_pool ?jobs ?registry f =
  let t = create ?jobs ?registry () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Runs [body] over item indices [0, total) on the pool; caller participates. *)
let run_parallel t ?chunk ~total body =
  let chunk =
    match chunk with
    | Some c ->
      if c < 1 then invalid_arg "Pool: chunk must be >= 1";
      c
    | None -> Int.max 1 (total / (t.jobs * 8))
  in
  let job =
    {
      body;
      total;
      chunk;
      n_chunks = ((total + chunk - 1) / chunk);
      next = Atomic.make 0;
      completed = 0;
      failed = None;
    }
  in
  Mutex.lock t.submit;
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    Mutex.unlock t.submit;
    invalid_arg "Pool: pool is shut down"
  end;
  t.current <- Some job;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  Domain.DLS.set inside_key true;
  exec_chunks t job;
  Domain.DLS.set inside_key false;
  Mutex.lock t.mutex;
  while job.completed < job.n_chunks do
    Condition.wait t.finished t.mutex
  done;
  t.current <- None;
  Mutex.unlock t.mutex;
  Mutex.unlock t.submit;
  match job.failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let parallel_map ?chunk t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if t.jobs = 1 || n = 1 || inside () then Array.map f arr
  else begin
    let out = Array.make n None in
    run_parallel t ?chunk ~total:n (fun lo hi ->
        for i = lo to hi - 1 do
          out.(i) <- Some (f arr.(i))
        done);
    Array.map (function Some v -> v | None -> assert false) out
  end

let map_list ?chunk t f xs =
  Array.to_list (parallel_map ?chunk t f (Array.of_list xs))

let parallel_for ?chunk t ~start ~finish f =
  let total = finish - start + 1 in
  if total <= 0 then ()
  else if t.jobs = 1 || total = 1 || inside () then
    for i = start to finish do
      f i
    done
  else
    run_parallel t ?chunk ~total (fun lo hi ->
        for k = lo to hi - 1 do
          f (start + k)
        done)
