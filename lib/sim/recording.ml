type event =
  | Ready of int
  | Start of int * int
  | Finish of int
  | Failed of int * int

type attempt = {
  task_id : int;
  attempt : int;
  start : float;
  finish : float;
  nprocs : int;
  procs : int array;
  failed : bool;
}

let kind_ready = 0
let kind_start = 1
let kind_finish = 2
let kind_failed = 3

let decode code arg =
  let tid = code lsr 2 in
  match code land 3 with
  | 0 -> Ready tid
  | 1 -> Start (tid, arg)
  | 2 -> Finish tid
  | _ -> Failed (tid, arg)

type t = {
  lean : bool;
  schedule : Schedule.t;
  times : float array;
  codes : int array;
  args : int array;
  failed_procs : int array array;
  depth_times : float array;
  depths : int array;
}

let make ~schedule ~times ~codes ~args ~failed_procs ~depth_times ~depths =
  { lean = false; schedule; times; codes; args; failed_procs; depth_times;
    depths }

let lean schedule =
  { lean = true; schedule; times = [||]; codes = [||]; args = [||];
    failed_procs = [||]; depth_times = [||]; depths = [||] }

let n_tasks r = if r.lean then 0 else Schedule.n r.schedule
let n_events r = Array.length r.times

let events_from r k0 =
  let lst = ref [] in
  for k = n_events r - 1 downto max 0 k0 do
    lst := (r.times.(k), decode r.codes.(k) r.args.(k)) :: !lst
  done;
  !lst

let trace r = events_from r 0

(* Replays the trace: a [Start] opens its task's attempt, the next
   [Finish]/[Failed] of the task closes it at that event's instant.  A
   success runs on the task's placement, the k-th failure on the k-th
   recorded failed block. *)
let attempts r =
  let n = n_tasks r in
  let start = Array.make n 0. and attempt_no = Array.make n 0 in
  let n_failed = ref 0 and acc = ref [] in
  for k = 0 to n_events r - 1 do
    let code = r.codes.(k) in
    let tid = code lsr 2 in
    let kind = code land 3 in
    if kind = kind_start then begin
      start.(tid) <- r.times.(k);
      attempt_no.(tid) <- attempt_no.(tid) + 1
    end
    else if kind <> kind_ready then begin
      let failed = kind = kind_failed in
      let procs =
        if failed then begin
          let b = r.failed_procs.(!n_failed) in
          incr n_failed;
          b
        end
        else (Schedule.placement r.schedule tid).Schedule.procs
      in
      acc :=
        { task_id = tid; attempt = attempt_no.(tid); start = start.(tid);
          finish = r.times.(k); nprocs = Array.length procs; procs; failed }
        :: !acc
    end
  done;
  List.sort
    (fun x y ->
      match Float.compare x.start y.start with
      | 0 -> (
        match Int.compare x.task_id y.task_id with
        | 0 -> Int.compare x.attempt y.attempt
        | c -> c)
      | c -> c)
    !acc
