module Float_heap = Moldable_util.Float_heap

type t = {
  heap : Float_heap.t;
  (* Reusable batch buffer filled by [pop_batch]; parallel stamp/payload
     arrays, valid until the next pop. *)
  mutable batch_stamps : float array;
  mutable batch_loads : int array;
  mutable batch_len : int;
}

let create ?(capacity = 64) () =
  {
    heap = Float_heap.create ~capacity ();
    batch_stamps = Array.make 16 0.;
    batch_loads = Array.make 16 0;
    batch_len = 0;
  }

let clear t =
  Float_heap.clear t.heap;
  t.batch_len <- 0

let add t ~time payload =
  if not (Float.is_finite time) then
    invalid_arg "Event_queue.add: time must be finite";
  Float_heap.push t.heap ~key:time payload

let next_time t =
  if Float_heap.is_empty t.heap then None else Some (Float_heap.min_key t.heap)

let due t ~until =
  (not (Float_heap.is_empty t.heap)) && Float_heap.min_key t.heap <= until

(* Completions that are simultaneous in exact arithmetic reach the queue
   through different float paths (each is a [start +. duration] sum), so
   they can disagree in the last ulp.  Batching by exact equality then
   splits one scheduling instant in two and the policy launches against a
   stale free count.  The tolerance is relative and keyed off the batch's
   first (earliest) timestamp — far below any genuine event separation, far
   above accumulated rounding noise. *)
(* Exposed so the exact shadow oracle (test/oracle/exact) can replay the
   batching decision with the very same tolerance. *)
let batch_eps = 1e-12

let batch_grow t =
  let cap = Array.length t.batch_loads in
  if t.batch_len = cap then begin
    let stamps = Array.make (2 * cap) 0. and loads = Array.make (2 * cap) 0 in
    Array.blit t.batch_stamps 0 stamps 0 t.batch_len;
    Array.blit t.batch_loads 0 loads 0 t.batch_len;
    t.batch_stamps <- stamps;
    t.batch_loads <- loads
  end

let[@inline] batch_append t stamp payload =
  batch_grow t;
  t.batch_stamps.(t.batch_len) <- stamp;
  t.batch_loads.(t.batch_len) <- payload;
  t.batch_len <- t.batch_len + 1

let pop_batch t =
  t.batch_len <- 0;
  if Float_heap.is_empty t.heap then 0
  else begin
    (* The batch is keyed off its first (earliest) stamp so it cannot
       drift; events pop in (time, insertion) order, so the last appended
       stamp is the batch's latest. *)
    let first = Float_heap.min_key t.heap in
    batch_append t first (Float_heap.min_payload t.heap);
    Float_heap.drop_min t.heap;
    let continue = ref true in
    while !continue do
      if Float_heap.is_empty t.heap then continue := false
      else begin
        let stamp = Float_heap.min_key t.heap in
        if Moldable_util.Fcmp.approx ~eps:batch_eps stamp first then begin
          batch_append t stamp (Float_heap.min_payload t.heap);
          Float_heap.drop_min t.heap
        end
        else continue := false
      end
    done;
    t.batch_len
  end

let batch_time t =
  if t.batch_len = 0 then invalid_arg "Event_queue.batch_time: empty batch";
  t.batch_stamps.(t.batch_len - 1)

let batch_stamp t i =
  if i < 0 || i >= t.batch_len then
    invalid_arg "Event_queue.batch_stamp: index out of range";
  t.batch_stamps.(i)

let batch_payload t i =
  if i < 0 || i >= t.batch_len then
    invalid_arg "Event_queue.batch_payload: index out of range";
  t.batch_loads.(i)
