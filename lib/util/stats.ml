type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p95 : float;
}

(* A single NaN used to scramble the quantiles' polymorphic sort and
   propagate silently through every aggregate; non-finite samples are
   rejected up front so corrupt inputs fail loudly. *)
let check_finite name xs =
  List.iter
    (fun x ->
      if not (Float.is_finite x) then
        invalid_arg (Printf.sprintf "%s: non-finite sample %h" name x))
    xs

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty sample"
  | _ ->
    check_finite "Stats.mean" xs;
    let total = List.fold_left ( +. ) 0. xs in
    total /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ ->
    let m = mean xs in
    let sq = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs in
    sqrt (sq /. float_of_int (List.length xs - 1))

(* Linear interpolation at quantile [q] of an already-sorted array. *)
let interpolate_sorted arr q =
  let n = Array.length arr in
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  let frac = pos -. float_of_int i in
  if i + 1 >= n then arr.(n - 1)
  else arr.(i) +. (frac *. (arr.(i + 1) -. arr.(i)))

let quantile q xs =
  match xs with
  | [] -> invalid_arg "Stats.quantile: empty sample"
  | _ ->
    if not (Float.is_finite q) || q < 0. || q > 1. then
      invalid_arg "Stats.quantile: q out of [0,1]";
    check_finite "Stats.quantile" xs;
    let arr = Array.of_list xs in
    Array.sort Float.compare arr;
    interpolate_sorted arr q

let median xs = quantile 0.5 xs

let summarize xs =
  match xs with
  | [] -> invalid_arg "Stats.summarize: empty sample"
  | _ ->
    check_finite "Stats.summarize" xs;
    (* One sort, one pass: min/max/median/p95 read off the sorted array,
       mean and variance accumulate in the same pass (Welford's update, so
       the variance never goes negative from catastrophic cancellation). *)
    let arr = Array.of_list xs in
    Array.sort Float.compare arr;
    let n = Array.length arr in
    let mean = ref 0. and m2 = ref 0. in
    Array.iteri
      (fun i x ->
        let d = x -. !mean in
        mean := !mean +. (d /. float_of_int (i + 1));
        m2 := !m2 +. (d *. (x -. !mean)))
      arr;
    {
      n;
      mean = !mean;
      stddev = (if n <= 1 then 0. else sqrt (!m2 /. float_of_int (n - 1)));
      min = arr.(0);
      max = arr.(n - 1);
      median = interpolate_sorted arr 0.5;
      p95 = interpolate_sorted arr 0.95;
    }
