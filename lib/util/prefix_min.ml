(* Internal layout: the segment tree caches, per node, the *bucket key*
   (1..k) holding the least element of that subtree, with 0 meaning the
   subtree is empty.  Caching int keys instead of ['a option] items keeps
   the tree allocation-free (no [Some] per cached minimum, no
   [(node, item)] pair during the prefix decomposition); {!Ranked_queue}
   uses the same layout with unboxed buckets.  The cached key is dereferenced through the bucket's live top, which is
   exactly the item the old design cached: ancestors are refreshed on every
   push/pop of a bucket, so a cached key always points at a non-empty
   bucket whose top is its subtree's minimum. *)
type 'a t = {
  cmp : 'a -> 'a -> int;
  k : int;
  base : int; (* smallest power of two >= k; leaf for key j is base + j - 1 *)
  tree : int array; (* 1-indexed heap layout; cached min's bucket key or 0 *)
  buckets : 'a Pqueue.t array; (* index 1..k; slot 0 is an unused dummy *)
  mutable length : int;
}

let create ~k ~cmp =
  if k < 1 then invalid_arg "Prefix_min.create: key space must be >= 1";
  let base = ref 1 in
  while !base < k do
    base := !base * 2
  done;
  {
    cmp;
    k;
    base = !base;
    tree = Array.make (2 * !base) 0;
    buckets = Array.init (k + 1) (fun _ -> Pqueue.create ~cmp);
    length = 0;
  }

let length t = t.length
let is_empty t = t.length = 0

(* The bucket key with the lesser top; ties keep [a] (the left/earlier
   candidate), matching the old option-cached behaviour. *)
let min_key t a b =
  if a = 0 then b
  else if b = 0 then a
  else if t.cmp (Pqueue.top t.buckets.(a)) (Pqueue.top t.buckets.(b)) <= 0
  then a
  else b

(* Recompute cached minima from [node] up to the root. *)
let rec update_path t node =
  if node >= 1 then begin
    t.tree.(node) <- min_key t t.tree.(2 * node) t.tree.((2 * node) + 1);
    update_path t (node / 2)
  end

let push t ~key x =
  if key < 1 || key > t.k then
    invalid_arg
      (Printf.sprintf "Prefix_min.push: key %d outside [1, %d]" key t.k);
  Pqueue.push t.buckets.(key) x;
  let leaf = t.base + key - 1 in
  t.tree.(leaf) <- key;
  update_path t (leaf / 2);
  t.length <- t.length + 1

(* The bucket key holding the minimum of the leaf range [1, key], or 0 when
   that range is empty: the standard bottom-up decomposition, considering
   the left boundary before the right at each level (the old item-cached
   traversal's order; [cmp] is total, so order only breaks unreachable
   ties). *)
let best_key t ~key =
  let key = min key t.k in
  if key < 1 then 0
  else begin
    let consider best cand =
      if cand = 0 then best
      else if best = 0 then cand
      else if t.cmp (Pqueue.top t.buckets.(cand)) (Pqueue.top t.buckets.(best))
              < 0
      then cand
      else best
    in
    let rec go lo hi best =
      if lo > hi then best
      else begin
        let best = if lo land 1 = 1 then consider best t.tree.(lo) else best in
        let lo = if lo land 1 = 1 then lo + 1 else lo in
        let best =
          if lo <= hi && hi land 1 = 0 then consider best t.tree.(hi) else best
        in
        let hi = if hi land 1 = 0 then hi - 1 else hi in
        go (lo / 2) (hi / 2) best
      end
    in
    go t.base (t.base + key - 1) 0
  end

let peek_prefix t ~key =
  match best_key t ~key with
  | 0 -> None
  | bk -> Some (Pqueue.top t.buckets.(bk))

let pop_prefix t ~key =
  match best_key t ~key with
  | 0 -> None
  | bk ->
    let b = t.buckets.(bk) in
    let x = Pqueue.pop_exn b in
    let leaf = t.base + bk - 1 in
    t.tree.(leaf) <- (if Pqueue.is_empty b then 0 else bk);
    update_path t (leaf / 2);
    t.length <- t.length - 1;
    Some x
