type t = {
  mutable buf : Bytes.t;
  mutable lo : int;  (** First pending byte. *)
  mutable hi : int;  (** One past the last pending byte. *)
  mutable scan : int;  (** Bytes in [lo, scan) hold no newline. *)
}

let create n = { buf = Bytes.create n; lo = 0; hi = 0; scan = 0 }

let pending b = b.hi - b.lo

let read b fd =
  if b.lo = b.hi then begin
    b.lo <- 0;
    b.hi <- 0;
    b.scan <- 0
  end
  else if b.hi = Bytes.length b.buf then begin
    let live = b.hi - b.lo in
    let dst =
      if 2 * live > Bytes.length b.buf then Bytes.create (2 * Bytes.length b.buf)
      else b.buf
    in
    Bytes.blit b.buf b.lo dst 0 live;
    b.buf <- dst;
    b.scan <- b.scan - b.lo;
    b.lo <- 0;
    b.hi <- live
  end;
  let r = Unix.read fd b.buf b.hi (Bytes.length b.buf - b.hi) in
  b.hi <- b.hi + r;
  r

let newline b =
  let rec go i =
    if i >= b.hi then begin
      b.scan <- i;
      -1
    end
    else if Bytes.unsafe_get b.buf i = '\n' then i
    else go (i + 1)
  in
  go b.scan

let take_line b nl =
  let stop =
    if nl > b.lo && Bytes.get b.buf (nl - 1) = '\r' then nl - 1 else nl
  in
  let line = Bytes.sub_string b.buf b.lo (stop - b.lo) in
  b.lo <- nl + 1;
  b.scan <- b.lo;
  line
