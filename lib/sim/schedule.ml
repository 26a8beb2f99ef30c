open Moldable_util

type placement = {
  task_id : int;
  start : float;
  finish : float;
  nprocs : int;
  procs : int array;
}

type t = {
  p : int;
  starts : float array;
  finishes : float array;
  counts : int array;
  offsets : int array;
  lengths : int array;
  pairs : int array;
}

let of_blocks ~p ~starts ~finishes ~counts ~offsets ~lengths ~pairs =
  { p; starts; finishes; counts; offsets; lengths; pairs }

(* Empty-slot sentinel: no real placement carries [nprocs = 0] ([add]
   rejects it), and physical equality makes the test unambiguous. *)
let no_placement =
  { task_id = -1; start = 0.; finish = 0.; nprocs = 0; procs = [||] }

type builder = { bp : int; slots : placement array }

let builder ~p ~n =
  if p < 1 then invalid_arg "Schedule.builder: p must be >= 1";
  if n < 0 then invalid_arg "Schedule.builder: n must be >= 0";
  { bp = p; slots = Array.make n no_placement }

let well_formed_procs p pl =
  Array.length pl.procs = pl.nprocs
  && pl.nprocs >= 1
  &&
  let ok = ref true in
  for k = 0 to Array.length pl.procs - 1 do
    let i = pl.procs.(k) in
    if i < 0 || i >= p then ok := false;
    if k > 0 && pl.procs.(k - 1) >= i then ok := false
  done;
  !ok

let add b pl =
  if pl.task_id < 0 || pl.task_id >= Array.length b.slots then
    invalid_arg
      (Printf.sprintf "Schedule.add: task id %d out of range" pl.task_id);
  if b.slots.(pl.task_id) != no_placement then
    invalid_arg
      (Printf.sprintf "Schedule.add: task %d placed twice" pl.task_id);
  if pl.start < 0. || pl.finish < pl.start then
    invalid_arg
      (Printf.sprintf "Schedule.add: task %d has an ill-formed time window"
         pl.task_id);
  if not (well_formed_procs b.bp pl) then
    invalid_arg
      (Printf.sprintf "Schedule.add: task %d has an ill-formed processor set"
         pl.task_id);
  b.slots.(pl.task_id) <- pl

let finalize b =
  let n = Array.length b.slots in
  let pairs = Growbuf.I.create () in
  let offsets = Array.make n 0 and lengths = Array.make n 0 in
  Array.iteri
    (fun i pl ->
      if pl == no_placement then
        invalid_arg
          (Printf.sprintf "Schedule.finalize: task %d was never placed" i);
      offsets.(i) <- Growbuf.I.length pairs;
      Platform.push_pairs pairs pl.procs;
      lengths.(i) <- (Growbuf.I.length pairs - offsets.(i)) / 2)
    b.slots;
  {
    p = b.bp;
    starts = Array.map (fun pl -> pl.start) b.slots;
    finishes = Array.map (fun pl -> pl.finish) b.slots;
    counts = Array.map (fun pl -> pl.nprocs) b.slots;
    offsets;
    lengths;
    pairs = Growbuf.I.to_array pairs;
  }

let p t = t.p
let n t = Array.length t.starts

let makespan t = Array.fold_left Float.max 0. t.finishes

let procs t i =
  Platform.ids_of_pairs t.pairs ~off:t.offsets.(i) ~len:t.lengths.(i)

let placement t i =
  {
    task_id = i;
    start = t.starts.(i);
    finish = t.finishes.(i);
    nprocs = t.counts.(i);
    procs = procs t i;
  }

let placements t =
  List.sort
    (fun a b ->
      match Float.compare a.start b.start with
      | 0 -> Int.compare a.task_id b.task_id
      | c -> c)
    (List.init (n t) (placement t))

let utilization_steps t =
  (* Sweep: +nprocs at start, -nprocs at finish, in task order before the
     stable sort by time. *)
  let deltas =
    List.init
      (2 * n t)
      (fun j ->
        let i = j / 2 in
        if j land 1 = 0 then (t.starts.(i), t.counts.(i))
        else (t.finishes.(i), - t.counts.(i)))
    |> List.sort (fun (ta, _) (tb, _) -> Float.compare ta tb)
  in
  let rec sweep acc busy cursor = function
    | [] -> List.rev acc
    | (time, delta) :: rest ->
      let acc =
        if time > cursor then (cursor, time, busy) :: acc else acc
      in
      sweep acc (busy + delta) time rest
  in
  match deltas with
  | [] -> []
  | (t0, _) :: _ -> sweep [] 0 t0 deltas

let busy_area t =
  let acc = ref 0. in
  for i = 0 to n t - 1 do
    acc :=
      !acc
      +. (float_of_int t.counts.(i) *. (t.finishes.(i) -. t.starts.(i)))
  done;
  !acc

let average_utilization t =
  let ms = makespan t in
  if ms <= 0. then 0. else busy_area t /. (float_of_int t.p *. ms)
