module F = struct
  type t = { mutable data : float array; mutable len : int }

  let create ?(capacity = 64) () =
    { data = Array.make (Int.max 1 capacity) 0.; len = 0 }

  let clear t = t.len <- 0
  let length t = t.len

  let push t x =
    let cap = Array.length t.data in
    if t.len = cap then begin
      let ndata = Array.make (2 * cap) 0. in
      Array.blit t.data 0 ndata 0 t.len;
      t.data <- ndata
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let get t i =
    if i < 0 || i >= t.len then invalid_arg "Growbuf.F.get: index out of range";
    t.data.(i)

  let to_array t = Array.sub t.data 0 t.len
end

module I = struct
  type t = { mutable data : int array; mutable len : int }

  let create ?(capacity = 64) () =
    { data = Array.make (Int.max 1 capacity) 0; len = 0 }

  let clear t = t.len <- 0
  let length t = t.len

  let push t x =
    let cap = Array.length t.data in
    if t.len = cap then begin
      let ndata = Array.make (2 * cap) 0 in
      Array.blit t.data 0 ndata 0 t.len;
      t.data <- ndata
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let get t i =
    if i < 0 || i >= t.len then invalid_arg "Growbuf.I.get: index out of range";
    t.data.(i)

  let to_array t = Array.sub t.data 0 t.len
  let data t = t.data

  let set t i x =
    if i < 0 || i >= t.len then invalid_arg "Growbuf.I.set: index out of range";
    t.data.(i) <- x
end
