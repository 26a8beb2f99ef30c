(* The platform as it stood before its free flags were packed into words:
   one [bool] per processor, a scan for the lowest free ids from a hint,
   and a fresh [int array] per acquisition (the segment pool that recycled
   those arrays went with the engine's last use of it).  Kept as the
   differential oracle for [Platform] and as the platform of the
   reference engine: the same ids in the same order, the same free count
   and the same [Invalid_argument] messages. *)

type t = {
  size : int;
  free : bool array;
  mutable n_free : int;
  mutable scan_hint : int; (* smallest index possibly free *)
}

let create p =
  if p < 1 then invalid_arg "Platform.create: need at least one processor";
  { size = p; free = Array.make p true; n_free = p; scan_hint = 0 }

let free_count t = t.n_free

let acquire t n =
  if n < 1 then invalid_arg "Platform.acquire: need a positive allocation";
  if n > t.n_free then
    invalid_arg
      (Printf.sprintf "Platform.acquire: %d requested but only %d free" n
         t.n_free);
  let ids = Array.make n 0 in
  let rec scan i found =
    if found = n then i
    else if t.free.(i) then begin
      t.free.(i) <- false;
      ids.(found) <- i;
      scan (i + 1) (found + 1)
    end
    else scan (i + 1) found
  in
  let stop = scan t.scan_hint 0 in
  t.n_free <- t.n_free - n;
  (* Invariant: every processor below [scan_hint] is busy.  The scan starts
     at the hint and consumes every free processor it passes, so the
     invariant extends to the final scan position. *)
  t.scan_hint <- stop;
  ids

let release t ids =
  for k = 0 to Array.length ids - 1 do
    let i = ids.(k) in
    if i < 0 || i >= t.size then
      invalid_arg (Printf.sprintf "Platform.release: bad processor id %d" i);
    if t.free.(i) then
      invalid_arg
        (Printf.sprintf "Platform.release: processor %d is not busy" i);
    t.free.(i) <- true;
    if i < t.scan_hint then t.scan_hint <- i
  done;
  t.n_free <- t.n_free + Array.length ids
