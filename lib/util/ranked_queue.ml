(* One binary heap per allocation, each in three parallel flat arrays, and
   a segment tree whose nodes cache the allocation (1..k) whose heap holds
   the first entry of the subtree, 0 for an empty subtree.  The tree only
   depends on the heap roots, which [top_key]/[top_tie] mirror in flat
   arrays so that a node update reads two cells per child instead of
   chasing each heap's arrays. *)

type t = {
  k : int;
  base : int; (* smallest power of two >= k *)
  tree : int array; (* 1-indexed; the leaf of [alloc] is base + alloc - 1 *)
  keys : float array array; (* index 1..k; each a flat, unboxed float array *)
  ties : int array array;
  ids : int array array;
  sizes : int array; (* live entries of each heap *)
  top_key : float array; (* index 1..k; valid while the heap is non-empty *)
  top_tie : int array;
  mutable length : int;
}

let create ~k =
  if k < 1 then invalid_arg "Ranked_queue.create: k must be >= 1";
  let base = ref 1 in
  while !base < k do
    base := !base * 2
  done;
  {
    k;
    base = !base;
    tree = Array.make (2 * !base) 0;
    (* Empty heaps share [[||]] until their first push grows them. *)
    keys = Array.make (k + 1) [||];
    ties = Array.make (k + 1) [||];
    ids = Array.make (k + 1) [||];
    sizes = Array.make (k + 1) 0;
    top_key = Array.make (k + 1) 0.;
    top_tie = Array.make (k + 1) 0;
    length = 0;
  }

let length t = t.length

(* [(k1, t1)] comes strictly before [(k2, t2)]. *)
let[@inline] before (k1 : float) (t1 : int) (k2 : float) (t2 : int) =
  let c = Float.compare k1 k2 in
  c > 0 || (c = 0 && t1 < t2)

(* The allocation of the two whose heap root comes first; [a] (the lower
   allocations, in every caller) wins ties. *)
let[@inline] first t a b =
  if a = 0 then b
  else if b = 0 then a
  else if before t.top_key.(b) t.top_tie.(b) t.top_key.(a) t.top_tie.(a) then b
  else a

(* Refresh the leaf of [alloc] from its heap's root, then every ancestor. *)
let update t alloc =
  let leaf = t.base + alloc - 1 in
  if t.sizes.(alloc) > 0 then begin
    t.top_key.(alloc) <- t.keys.(alloc).(0);
    t.top_tie.(alloc) <- t.ties.(alloc).(0);
    t.tree.(leaf) <- alloc
  end
  else t.tree.(leaf) <- 0;
  let node = ref (leaf lsr 1) in
  while !node >= 1 do
    let n = !node in
    t.tree.(n) <- first t t.tree.(2 * n) t.tree.((2 * n) + 1);
    node := n lsr 1
  done

let check t ~alloc what =
  if alloc < 1 || alloc > t.k then
    invalid_arg
      (Printf.sprintf "Ranked_queue.%s: allocation %d outside [1, %d]" what
         alloc t.k)

(* Double the arrays of a full heap (16 slots for its first entry). *)
let grow t alloc size =
  let cap = Int.max 16 (2 * size) in
  let keys = Array.make cap 0. and ties = Array.make cap 0 in
  let ids = Array.make cap 0 in
  Array.blit t.keys.(alloc) 0 keys 0 size;
  Array.blit t.ties.(alloc) 0 ties 0 size;
  Array.blit t.ids.(alloc) 0 ids 0 size;
  t.keys.(alloc) <- keys;
  t.ties.(alloc) <- ties;
  t.ids.(alloc) <- ids

let push t ~alloc ~key ~tie ~id =
  check t ~alloc "push";
  let size = t.sizes.(alloc) in
  if size = Array.length t.ids.(alloc) then grow t alloc size;
  let keys = t.keys.(alloc) and ties = t.ties.(alloc) and ids = t.ids.(alloc) in
  (* Sift a hole up from [size], then drop the entry into it. *)
  let i = ref size in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before key tie keys.(parent) ties.(parent) then begin
      keys.(!i) <- keys.(parent);
      ties.(!i) <- ties.(parent);
      ids.(!i) <- ids.(parent);
      i := parent
    end
    else moving := false
  done;
  keys.(!i) <- key;
  ties.(!i) <- tie;
  ids.(!i) <- id;
  t.sizes.(alloc) <- size + 1;
  t.length <- t.length + 1;
  (* The tree reads heap roots only: a push below the root changes none. *)
  if !i = 0 then update t alloc

(* Prefix [1, free]: climbing from the leaf of [free], every left sibling
   on the path covers allocations entirely below it, so the prefix's first
   entry is the first of the leaf and those siblings. *)
let fit t ~free =
  let free = if free > t.k then t.k else free in
  if free < 1 then 0
  else begin
    let root = t.tree.(1) in
    if root <= free then root
    else begin
      let node = ref (t.base + free - 1) in
      let best = ref t.tree.(!node) in
      while !node > 1 do
        let n = !node in
        if n land 1 = 1 then best := first t t.tree.(n - 1) !best;
        node := n lsr 1
      done;
      !best
    end
  end

let nonempty t ~alloc what =
  check t ~alloc what;
  if t.sizes.(alloc) = 0 then
    invalid_arg
      (Printf.sprintf "Ranked_queue.%s: bucket %d is empty" what alloc)

let pop t ~alloc =
  nonempty t ~alloc "pop";
  let keys = t.keys.(alloc) and ties = t.ties.(alloc) and ids = t.ids.(alloc) in
  let id = ids.(0) in
  let size = t.sizes.(alloc) - 1 in
  t.sizes.(alloc) <- size;
  (* Move the last entry into the root's hole and sift it down. *)
  if size > 0 then begin
    let key = keys.(size) and tie = ties.(size) and last = ids.(size) in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= size then moving := false
      else begin
        let r = l + 1 in
        let c =
          if r < size && before keys.(r) ties.(r) keys.(l) ties.(l) then r
          else l
        in
        if before keys.(c) ties.(c) key tie then begin
          keys.(!i) <- keys.(c);
          ties.(!i) <- ties.(c);
          ids.(!i) <- ids.(c);
          i := c
        end
        else moving := false
      end
    done;
    keys.(!i) <- key;
    ties.(!i) <- tie;
    ids.(!i) <- last
  end;
  t.length <- t.length - 1;
  update t alloc;
  id
