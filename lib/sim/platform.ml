open Moldable_util

(* Processor [i] is bit [i mod word_bits] of word [i / word_bits].  62 bits
   keep every mask non-negative, so a full word is [max_int]. *)
let word_bits = 62
let full = max_int

(* SWAR population count over the 62 low bits. *)
let[@inline] popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x =
    (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333)
  in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (x * 0x0101_0101_0101_0101) lsr 56

(* Bit index of the lowest set bit of a non-zero mask. *)
let[@inline] lowest_bit m = popcount ((m land -m) - 1)

let words p = (p + word_bits - 1) / word_bits

(* The processors word [w] of a [p]-processor platform has: all of them
   but in the last word. *)
let word_mask p w =
  let tail = p - (w * word_bits) in
  if tail >= word_bits then full else (1 lsl tail) - 1

type t = {
  size : int;
  free : int array; (* one word of free flags per [word_bits] processors *)
  mutable n_free : int;
  mutable lo : int; (* every word below [lo] has no free processor *)
  scratch : Growbuf.I.t; (* the pairs of an [acquire] before expansion *)
}

let reset t =
  let nw = Array.length t.free in
  for w = 0 to nw - 1 do
    t.free.(w) <- word_mask t.size w
  done;
  t.n_free <- t.size;
  t.lo <- 0

let create p =
  if p < 1 then invalid_arg "Platform.create: need at least one processor";
  let t =
    {
      size = p;
      free = Array.make (words p) 0;
      n_free = p;
      lo = 0;
      scratch = Growbuf.I.create ~capacity:8 ();
    }
  in
  reset t;
  t

let p t = t.size
let free_count t = t.n_free

(* Takes the [n] lowest free processors, word by word from [lo]: a word
   that has no more free processors than still needed is taken whole with
   one popcount, and only the last word clears its lowest bits one at a
   time.  Loops over refs, not local functions: a closure here would be
   allocated on every launch. *)
let acquire_pairs t n buf =
  if n < 1 then invalid_arg "Platform.acquire: need a positive allocation";
  if n > t.n_free then
    invalid_arg
      (Printf.sprintf "Platform.acquire: %d requested but only %d free" n
         t.n_free);
  let free = t.free in
  let w = ref t.lo and need = ref n in
  while !need > 0 do
    let f = free.(!w) in
    if f <> 0 then begin
      let c = popcount f in
      if c <= !need then begin
        free.(!w) <- 0;
        Growbuf.I.push buf !w;
        Growbuf.I.push buf f;
        need := !need - c
      end
      else begin
        let rest = ref f in
        for _ = 1 to !need do
          rest := !rest land (!rest - 1)
        done;
        free.(!w) <- !rest;
        Growbuf.I.push buf !w;
        Growbuf.I.push buf (f lxor !rest);
        need := 0
      end
    end;
    if !need > 0 || free.(!w) = 0 then incr w
  done;
  (* Every word below [!w] is empty: the scan took all it passed. *)
  t.lo <- !w;
  t.n_free <- t.n_free - n

let bad_id i =
  invalid_arg (Printf.sprintf "Platform.release: bad processor id %d" i)

let not_busy i =
  invalid_arg (Printf.sprintf "Platform.release: processor %d is not busy" i)

let release_pairs t pairs ~off ~len =
  let nw = Array.length t.free in
  for k = 0 to len - 1 do
    let w = pairs.(off + (2 * k)) and mask = pairs.(off + (2 * k) + 1) in
    if w < 0 || w >= nw || mask <= 0 then bad_id (w * word_bits);
    let outside = mask land lnot (word_mask t.size w) in
    if outside <> 0 then bad_id ((w * word_bits) + lowest_bit outside);
    let clash = t.free.(w) land mask in
    if clash <> 0 then not_busy ((w * word_bits) + lowest_bit clash);
    t.free.(w) <- t.free.(w) lor mask;
    t.n_free <- t.n_free + popcount mask;
    if w < t.lo then t.lo <- w
  done

let claim_pairs t pairs ~off ~len =
  let free = t.free in
  let all_free = ref true in
  for k = 0 to len - 1 do
    let mask = pairs.(off + (2 * k) + 1) in
    if free.(pairs.(off + (2 * k))) land mask <> mask then all_free := false
  done;
  if !all_free then
    for k = 0 to len - 1 do
      let w = pairs.(off + (2 * k)) and mask = pairs.(off + (2 * k) + 1) in
      free.(w) <- free.(w) land lnot mask;
      t.n_free <- t.n_free - popcount mask
    done;
  !all_free

let count_pairs pairs ~off ~len =
  let n = ref 0 in
  for k = 0 to len - 1 do
    n := !n + popcount pairs.(off + (2 * k) + 1)
  done;
  !n

let ids_of_pairs pairs ~off ~len =
  let ids = Array.make (count_pairs pairs ~off ~len) 0 in
  let j = ref 0 in
  for k = 0 to len - 1 do
    let base = pairs.(off + (2 * k)) * word_bits in
    let m = ref pairs.(off + (2 * k) + 1) in
    while !m <> 0 do
      ids.(!j) <- base + lowest_bit !m;
      incr j;
      m := !m land (!m - 1)
    done
  done;
  ids

let push_pairs buf ids =
  let n = Array.length ids in
  let k = ref 0 in
  while !k < n do
    let w = ids.(!k) / word_bits in
    let mask = ref 0 in
    while !k < n && ids.(!k) / word_bits = w do
      mask := !mask lor (1 lsl (ids.(!k) - (w * word_bits)));
      incr k
    done;
    Growbuf.I.push buf w;
    Growbuf.I.push buf !mask
  done

(* The [int array] forms, for callers that want the ids themselves. *)

let acquire t n =
  let s = t.scratch in
  Growbuf.I.clear s;
  acquire_pairs t n s;
  ids_of_pairs (Growbuf.I.data s) ~off:0 ~len:(Growbuf.I.length s / 2)

(* One id at a time, in array order, as a processor-per-flag platform
   would: a bad id raises after the ids before it were freed. *)
let release t ids =
  for k = 0 to Array.length ids - 1 do
    let i = ids.(k) in
    if i < 0 || i >= t.size then bad_id i;
    let w = i / word_bits in
    let bit = 1 lsl (i - (w * word_bits)) in
    if t.free.(w) land bit <> 0 then not_busy i;
    t.free.(w) <- t.free.(w) lor bit;
    t.n_free <- t.n_free + 1;
    if w < t.lo then t.lo <- w
  done
