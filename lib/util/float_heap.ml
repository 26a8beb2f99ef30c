(* 4-ary instead of binary: the sift-down loop touches one cache line of the
   flat key array per level and the tree is half as deep, which measurably
   helps the event queue's pop-heavy workload.  Children of [i] are
   [4i+1 .. 4i+4], parent is [(i-1)/4]. *)

type t = {
  mutable keys : float array; (* flat float array: unboxed storage *)
  mutable seqs : int array;
  mutable loads : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create ?(capacity = 64) () =
  let capacity = Int.max 1 capacity in
  {
    keys = Array.make capacity 0.;
    seqs = Array.make capacity 0;
    loads = Array.make capacity 0;
    size = 0;
    next_seq = 0;
  }

let clear t =
  t.size <- 0;
  t.next_seq <- 0

let is_empty t = t.size = 0

(* Entry [i] precedes entry [j]: keys are finite, so [<] and [=] agree with
   [Float.compare] and no comparator closure is needed. *)
let[@inline] before t i j =
  t.keys.(i) < t.keys.(j)
  || (t.keys.(i) = t.keys.(j) && t.seqs.(i) < t.seqs.(j))

let[@inline] swap t i j =
  let k = t.keys.(i) in
  t.keys.(i) <- t.keys.(j);
  t.keys.(j) <- k;
  let s = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- s;
  let p = t.loads.(i) in
  t.loads.(i) <- t.loads.(j);
  t.loads.(j) <- p

let grow t =
  let cap = Array.length t.keys in
  if t.size = cap then begin
    let ncap = 2 * cap in
    let keys = Array.make ncap 0.
    and seqs = Array.make ncap 0
    and loads = Array.make ncap 0 in
    Array.blit t.keys 0 keys 0 t.size;
    Array.blit t.seqs 0 seqs 0 t.size;
    Array.blit t.loads 0 loads 0 t.size;
    t.keys <- keys;
    t.seqs <- seqs;
    t.loads <- loads
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 4 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let first = (4 * i) + 1 in
  if first < t.size then begin
    let last = Int.min (first + 3) (t.size - 1) in
    let smallest = ref i in
    for c = first to last do
      if before t c !smallest then smallest := c
    done;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end
  end

let push t ~key payload =
  if not (Float.is_finite key) then
    invalid_arg "Float_heap.push: key must be finite";
  grow t;
  let i = t.size in
  t.keys.(i) <- key;
  t.seqs.(i) <- t.next_seq;
  t.loads.(i) <- payload;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t i

let min_key t =
  if t.size = 0 then invalid_arg "Float_heap.min_key: empty heap";
  t.keys.(0)

let min_payload t =
  if t.size = 0 then invalid_arg "Float_heap.min_payload: empty heap";
  t.loads.(0)

let drop_min t =
  if t.size = 0 then invalid_arg "Float_heap.drop_min: empty heap";
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.keys.(0) <- t.keys.(t.size);
    t.seqs.(0) <- t.seqs.(t.size);
    t.loads.(0) <- t.loads.(t.size);
    sift_down t 0
  end
