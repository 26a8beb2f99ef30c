open Moldable_util

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ Fcmp *)

let test_approx_exact () =
  Alcotest.(check bool) "equal floats" true (Fcmp.approx 1.0 1.0)

let test_approx_close () =
  Alcotest.(check bool) "within eps" true (Fcmp.approx 1.0 (1.0 +. 1e-12))

let test_approx_far () =
  Alcotest.(check bool) "far apart" false (Fcmp.approx 1.0 1.001)

let test_approx_relative () =
  Alcotest.(check bool) "relative for large magnitudes" true
    (Fcmp.approx 1e12 (1e12 +. 1.))

let test_leq_strict () =
  Alcotest.(check bool) "1 <= 2" true (Fcmp.leq 1. 2.);
  Alcotest.(check bool) "2 <= 1 fails" false (Fcmp.leq 2. 1.)

let test_leq_tolerant () =
  Alcotest.(check bool) "slightly above still leq" true
    (Fcmp.leq (1. +. 1e-12) 1.)

let test_lt_gt () =
  Alcotest.(check bool) "lt strict" true (Fcmp.lt 1. 2.);
  Alcotest.(check bool) "lt of approx-equal is false" false
    (Fcmp.lt 1. (1. +. 1e-13));
  Alcotest.(check bool) "gt strict" true (Fcmp.gt 2. 1.)

let test_clamp () =
  check_float "below" 0. (Fcmp.clamp ~lo:0. ~hi:1. (-5.));
  check_float "above" 1. (Fcmp.clamp ~lo:0. ~hi:1. 7.);
  check_float "inside" 0.5 (Fcmp.clamp ~lo:0. ~hi:1. 0.5)

let test_compare_approx () =
  Alcotest.(check int) "equal" 0 (Fcmp.compare_approx 1. (1. +. 1e-13));
  Alcotest.(check int) "less" (-1) (Fcmp.compare_approx 1. 2.);
  Alcotest.(check int) "greater" 1 (Fcmp.compare_approx 2. 1.)

(* ------------------------------------------------------------------- Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true
    (Rng.int64 a <> Rng.int64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "in [0,10)" true (v >= 0 && v < 10)
  done

let test_rng_int_range_bounds () =
  let rng = Rng.create 8 in
  for _ = 1 to 1000 do
    let v = Rng.int_range rng 5 9 in
    Alcotest.(check bool) "in [5,9]" true (v >= 5 && v <= 9)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 9 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 3.5 in
    Alcotest.(check bool) "in [0,3.5)" true (v >= 0. && v < 3.5)
  done

let test_rng_split_independent () =
  let a = Rng.create 13 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int64 a) in
  let ys = List.init 20 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_rng_copy () =
  let a = Rng.create 5 in
  let _ = Rng.int64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 a)
    (Rng.int64 b)

let test_rng_log_uniform_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.log_uniform rng 1. 100. in
    Alcotest.(check bool) "in [1,100]" true (v >= 1. && v <= 100.)
  done

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 17 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never true" false (Rng.bernoulli rng 0.)
  done

let test_rng_mean_uniform () =
  let rng = Rng.create 23 in
  let n = 20_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Rng.float rng 1.
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 29 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation"
    (Array.init 50 (fun i -> i))
    sorted

let test_rng_invalid_args () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "empty choose"
    (Invalid_argument "Rng.choose: empty array") (fun () ->
      ignore (Rng.choose rng [||]))

(* ---------------------------------------------------------------- Pqueue *)

let test_pqueue_order () =
  let q = Pqueue.of_list ~cmp:compare [ 5; 3; 8; 1; 9; 2 ] in
  Alcotest.(check (list int)) "sorted pops" [ 1; 2; 3; 5; 8; 9 ]
    (Pqueue.to_sorted_list q)

let test_pqueue_push_pop () =
  let q = Pqueue.create ~cmp:compare in
  Pqueue.push q 3;
  Pqueue.push q 1;
  Pqueue.push q 2;
  Alcotest.(check (option int)) "peek min" (Some 1) (Pqueue.peek q);
  Alcotest.(check (option int)) "pop min" (Some 1) (Pqueue.pop q);
  Alcotest.(check int) "length" 2 (Pqueue.length q)

let test_pqueue_empty () =
  let q = Pqueue.create ~cmp:compare in
  Alcotest.(check bool) "is_empty" true (Pqueue.is_empty q);
  Alcotest.(check (option int)) "pop empty" None (Pqueue.pop q);
  Alcotest.check_raises "pop_exn empty"
    (Invalid_argument "Pqueue.pop_exn: empty queue") (fun () ->
      ignore (Pqueue.pop_exn q))

let test_pqueue_duplicates () =
  let q = Pqueue.of_list ~cmp:compare [ 2; 2; 1; 1 ] in
  Alcotest.(check (list int)) "dups preserved" [ 1; 1; 2; 2 ]
    (Pqueue.to_sorted_list q)

let test_pqueue_clear () =
  let q = Pqueue.of_list ~cmp:compare [ 1; 2 ] in
  Pqueue.clear q;
  Alcotest.(check bool) "cleared" true (Pqueue.is_empty q)

let test_pqueue_custom_cmp () =
  let q = Pqueue.of_list ~cmp:(fun a b -> compare b a) [ 1; 3; 2 ] in
  Alcotest.(check (option int)) "max-heap" (Some 3) (Pqueue.pop q)

let test_pqueue_to_sorted_nondestructive () =
  let q = Pqueue.of_list ~cmp:compare [ 3; 1; 2 ] in
  let _ = Pqueue.to_sorted_list q in
  Alcotest.(check int) "length unchanged" 3 (Pqueue.length q)

let test_pqueue_push_list () =
  let q = Pqueue.of_list ~cmp:compare [ 5; 1 ] in
  Pqueue.push_list q [ 4; 0; 3 ];
  Alcotest.(check (list int)) "merged" [ 0; 1; 3; 4; 5 ]
    (Pqueue.to_sorted_list q);
  Pqueue.push_list q [];
  Alcotest.(check int) "empty push_list is a no-op" 5 (Pqueue.length q)

let test_pqueue_copy_independent () =
  let q = Pqueue.of_list ~cmp:compare [ 3; 1; 2 ] in
  let q' = Pqueue.copy q in
  ignore (Pqueue.pop q');
  Pqueue.push q' 0;
  Alcotest.(check int) "original length untouched" 3 (Pqueue.length q);
  Alcotest.(check (option int)) "original min untouched" (Some 1)
    (Pqueue.peek q);
  Alcotest.(check (list int)) "copy evolved independently" [ 0; 2; 3 ]
    (Pqueue.to_sorted_list q')

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue sorts like List.sort" ~count:200
    QCheck.(list int)
    (fun xs ->
      let q = Pqueue.of_list ~cmp:compare xs in
      Pqueue.to_sorted_list q = List.sort compare xs)

let prop_pqueue_push_list_like_of_list =
  QCheck.Test.make ~name:"push_list agrees with of_list on the union"
    ~count:200
    QCheck.(pair (list int) (list int))
    (fun (xs, ys) ->
      let q = Pqueue.of_list ~cmp:compare xs in
      Pqueue.push_list q ys;
      Pqueue.to_sorted_list q = List.sort compare (xs @ ys))

(* ------------------------------------------------------------ Prefix_min *)

let test_prefix_min_basic () =
  let t = Prefix_min.create ~k:8 ~cmp:compare in
  Alcotest.(check bool) "empty" true (Prefix_min.is_empty t);
  Alcotest.(check (option int)) "peek empty" None (Prefix_min.peek_prefix t ~key:8);
  Prefix_min.push t ~key:3 30;
  Prefix_min.push t ~key:5 10;
  Prefix_min.push t ~key:1 20;
  Alcotest.(check int) "length" 3 (Prefix_min.length t);
  (* The prefix minimum is not the global minimum here. *)
  Alcotest.(check (option int)) "prefix [1,4]" (Some 20)
    (Prefix_min.peek_prefix t ~key:4);
  Alcotest.(check (option int)) "prefix [1,8]" (Some 10)
    (Prefix_min.peek_prefix t ~key:8);
  Alcotest.(check (option int)) "key above k clamps" (Some 10)
    (Prefix_min.peek_prefix t ~key:100);
  Alcotest.(check (option int)) "key < 1 is empty" None
    (Prefix_min.peek_prefix t ~key:0);
  Alcotest.(check (option int)) "pop [1,4]" (Some 20)
    (Prefix_min.pop_prefix t ~key:4);
  Alcotest.(check (option int)) "then pop [1,4] again" (Some 30)
    (Prefix_min.pop_prefix t ~key:4);
  Alcotest.(check (option int)) "then [1,4] empty" None
    (Prefix_min.pop_prefix t ~key:4);
  Alcotest.(check (option int)) "but [1,5] still has 10" (Some 10)
    (Prefix_min.pop_prefix t ~key:5);
  Alcotest.(check bool) "drained" true (Prefix_min.is_empty t)

let test_prefix_min_rejects_bad_keys () =
  Alcotest.check_raises "k >= 1"
    (Invalid_argument "Prefix_min.create: key space must be >= 1") (fun () ->
      ignore (Prefix_min.create ~k:0 ~cmp:compare));
  let t = Prefix_min.create ~k:4 ~cmp:compare in
  Alcotest.check_raises "push key too large"
    (Invalid_argument "Prefix_min.push: key 5 outside [1, 4]") (fun () ->
      Prefix_min.push t ~key:5 1);
  Alcotest.check_raises "push key too small"
    (Invalid_argument "Prefix_min.push: key 0 outside [1, 4]") (fun () ->
      Prefix_min.push t ~key:0 1)

let prop_prefix_min_matches_model =
  (* Random interleaving of pushes and prefix-pops, checked against a naive
     list model.  Elements are (value, uid) so cmp is total like the
     scheduler's priority rules. *)
  QCheck.Test.make ~name:"prefix_min matches naive list model" ~count:300
    QCheck.(
      pair (int_range 1 12)
        (small_list (pair (int_range 1 12) (int_range 0 30))))
    (fun (k, ops) ->
      let t = Prefix_min.create ~k ~cmp:compare in
      let model = ref [] in
      let uid = ref 0 in
      List.for_all
        (fun (key, v) ->
          if v mod 3 = 0 then begin
            (* pop_prefix with query key [key] *)
            let expect =
              List.fold_left
                (fun acc (x, kx) ->
                  if kx <= min key k then
                    match acc with
                    | Some (b, _) when compare b x <= 0 -> acc
                    | _ -> Some (x, kx)
                  else acc)
                None !model
            in
            let got = Prefix_min.pop_prefix t ~key in
            (match expect with
            | Some (x, kx) ->
              model :=
                List.filter (fun (y, ky) -> not (y = x && ky = kx)) !model
            | None -> ());
            Option.map fst expect = got
            && Prefix_min.length t = List.length !model
          end
          else begin
            let key = 1 + (key mod k) in
            let x = (v, !uid) in
            incr uid;
            Prefix_min.push t ~key x;
            model := (x, key) :: !model;
            Prefix_min.length t = List.length !model
          end)
        ops)


(* ---------------------------------------------------------- Ranked_queue *)

let test_ranked_queue_basic () =
  let t = Ranked_queue.create ~k:8 in
  Alcotest.(check int) "empty fit" 0 (Ranked_queue.fit t ~free:8);
  Ranked_queue.push t ~alloc:3 ~key:1. ~tie:0 ~id:30;
  Ranked_queue.push t ~alloc:5 ~key:2. ~tie:1 ~id:50;
  Ranked_queue.push t ~alloc:1 ~key:1. ~tie:2 ~id:10;
  Ranked_queue.push t ~alloc:2 ~key:Float.nan ~tie:3 ~id:20;
  Alcotest.(check int) "length" 4 (Ranked_queue.length t);
  (* Higher key first, then lower tie; NaN last. *)
  Alcotest.(check int) "whole queue" 5 (Ranked_queue.fit t ~free:100);
  Alcotest.(check int) "prefix [1,4]" 3 (Ranked_queue.fit t ~free:4);
  Alcotest.(check int) "nothing below 1" 0 (Ranked_queue.fit t ~free:0);
  Alcotest.(check int) "pop" 30 (Ranked_queue.pop t ~alloc:3);
  Alcotest.(check int) "then the later tie" 1 (Ranked_queue.fit t ~free:4);
  Alcotest.(check int) "top" 10 (Ranked_queue.top t ~alloc:1);
  Alcotest.(check int) "pop" 10 (Ranked_queue.pop t ~alloc:1);
  Alcotest.(check int) "NaN key" 2 (Ranked_queue.fit t ~free:4);
  Alcotest.check_raises "alloc out of range"
    (Invalid_argument "Ranked_queue.push: allocation 9 outside [1, 8]")
    (fun () -> Ranked_queue.push t ~alloc:9 ~key:0. ~tie:0 ~id:0);
  Alcotest.check_raises "empty bucket"
    (Invalid_argument "Ranked_queue.pop: bucket 4 is empty") (fun () ->
      ignore (Ranked_queue.pop t ~alloc:4 : int))

(* After a warm-up that grows every bucket to its high-water mark, pushes
   and pops allocate nothing: in buckets whose entries arrive in order
   (keys equal, ties in arrival order) and in buckets whose keys arrive out
   of order alike, with launches at every free count.  The entries are
   built up front, so their boxed keys are not counted. *)
let test_ranked_queue_allocates_nothing () =
  let k = 8 and n = 4096 in
  let entries =
    Array.init n (fun i ->
        let alloc = 1 + (i mod k) in
        let key = if alloc <= k / 2 then 0. else float_of_int (i * 7 mod 13) in
        (key, i, alloc))
  in
  let q = Ranked_queue.create ~k in
  let cycle () =
    for i = 0 to n - 1 do
      let key, tie, alloc = entries.(i) in
      Ranked_queue.push q ~alloc ~key ~tie ~id:tie;
      (* Interleave launches so buckets shrink while they fill. *)
      if i mod 5 = 0 then begin
        let a = Ranked_queue.fit q ~free:(1 + (i mod k)) in
        if a > 0 then ignore (Ranked_queue.pop q ~alloc:a : int)
      end
    done;
    let j = ref 0 in
    while not (Ranked_queue.is_empty q) do
      let a = Ranked_queue.fit q ~free:(1 + (!j mod k)) in
      if a > 0 then ignore (Ranked_queue.pop q ~alloc:a : int);
      incr j
    done
  in
  cycle ();
  cycle ();
  let w0 = Gc.minor_words () in
  cycle ();
  let w1 = Gc.minor_words () in
  let w2 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "minor words over a warm cycle" 0.
    (w1 -. w0 -. (w2 -. w1))

(* -------------------------------------------------------------- Numerics *)

let test_golden_quadratic () =
  let x, fx =
    Numerics.golden_section_min ~f:(fun x -> (x -. 2.) ** 2.) ~lo:0. ~hi:5. ()
  in
  Alcotest.(check (float 1e-6)) "argmin" 2. x;
  Alcotest.(check (float 1e-9)) "min value" 0. fx

let test_minimize_nonconvex () =
  (* Two dips; global at x ~ 4.5. *)
  let f x = Float.min ((x -. 1.) ** 2.) (((x -. 4.5) ** 2.) -. 0.5) in
  let x, _ = Numerics.minimize ~f ~lo:0. ~hi:6. () in
  Alcotest.(check (float 1e-3)) "global min found" 4.5 x

let test_bisect_sqrt2 () =
  let r = Numerics.bisect ~f:(fun x -> (x *. x) -. 2.) ~lo:0. ~hi:2. () in
  Alcotest.(check (float 1e-9)) "sqrt 2" (sqrt 2.) r

let test_bisect_no_sign_change () =
  Alcotest.check_raises "same sign"
    (Invalid_argument "Numerics.bisect: no sign change on interval")
    (fun () -> ignore (Numerics.bisect ~f:(fun x -> x +. 10.) ~lo:0. ~hi:1. ()))

(* Regression: the old bisect compared [f x = 0.] / [f lo *. f hi > 0.]
   with float equality and products.  A function landing exactly on -0., or
   returning denormals whose product underflows to 0., broke both tests.
   The sign-based version must treat signed zeros as roots and keep
   denormal signs. *)
let test_bisect_signed_zero_root () =
  Alcotest.(check (float 0.)) "-0. at lo is a root" 0.
    (Numerics.bisect ~f:(fun x -> if x = 0. then -0. else x) ~lo:0. ~hi:1. ());
  Alcotest.(check (float 0.)) "-0. at hi is a root" 1.
    (Numerics.bisect
       ~f:(fun x -> if x = 1. then -0. else x -. 2.)
       ~lo:0. ~hi:1. ())

let test_bisect_denormal_values () =
  (* f only ever returns +-2^-1074: the product f lo *. f hi underflows to
     -0., which the old same-sign test misread as "no sign change". *)
  let tiny = Float.ldexp 1. (-1074) in
  let f x = if x < 1. then -.tiny else tiny in
  let r = Numerics.bisect ~f ~lo:0. ~hi:2. () in
  Alcotest.(check (float 1e-9)) "denormal sign change bracketed" 1. r

let test_bisect_rejects_nan () =
  Alcotest.check_raises "NaN at lo"
    (Invalid_argument "Numerics.bisect: f lo is NaN")
    (fun () ->
      ignore (Numerics.bisect ~f:(fun _ -> Float.nan) ~lo:0. ~hi:1. ()));
  Alcotest.check_raises "NaN at a probed midpoint"
    (Invalid_argument "Numerics.bisect: f mid is NaN")
    (fun () ->
      ignore
        (Numerics.bisect
           ~f:(fun x -> if x = 0. then -1. else if x = 1. then 1. else Float.nan)
           ~lo:0. ~hi:1. ()))

(* Regression: grid_min/minimize propagated NaN through [<] comparisons —
   a single NaN sample (log of a negative ratio, 0/0 pole) poisoned the
   running minimum and the final answer. *)
let test_grid_min_skips_nan () =
  let f x = if x < 1. then Float.nan else (x -. 2.) ** 2. in
  let x, fx = Numerics.grid_min ~f ~lo:0. ~hi:4. () in
  Alcotest.(check (float 1e-3)) "argmin past the NaN region" 2. x;
  Alcotest.(check (float 1e-6)) "finite minimum" 0. fx;
  Alcotest.check_raises "all-NaN grid"
    (Invalid_argument "Numerics.grid_min: f has no finite value on the grid")
    (fun () -> ignore (Numerics.grid_min ~f:(fun _ -> Float.nan) ~lo:0. ~hi:1. ()))

let test_minimize_skips_nan () =
  (* Pole at x = 1 (NaN) next to the true minimum at x = 2; the refinement
     around the best grid point must not be derailed by the pole. *)
  let f x = if Float.abs (x -. 1.) < 0.05 then 0. /. 0. else (x -. 2.) ** 2. in
  let x, fx = Numerics.minimize ~f ~lo:0. ~hi:4. () in
  Alcotest.(check (float 1e-3)) "minimum beside a NaN pole" 2. x;
  Alcotest.(check bool) "result is finite" true (Float.is_finite fx)

let test_ilog2 () =
  Alcotest.check_raises "rejects 0" (Invalid_argument "Numerics.ilog2: need n >= 1")
    (fun () -> ignore (Numerics.ilog2 0));
  Alcotest.(check int) "1" 0 (Numerics.ilog2 1);
  Alcotest.(check int) "max_int" 61 (Numerics.ilog2 max_int);
  for k = 0 to 61 do
    Alcotest.(check int)
      (Printf.sprintf "2^%d" k)
      k
      (Numerics.ilog2 (1 lsl k));
    if k >= 1 then
      Alcotest.(check int)
        (Printf.sprintf "2^%d - 1" k)
        (k - 1)
        (Numerics.ilog2 ((1 lsl k) - 1))
  done

let test_guarded_rounding () =
  (* An ulp of drift around a mathematically integral product must not move
     the rounded integer; genuinely fractional values are untouched. *)
  let below3 = Float.pred 3. and above3 = Float.succ 3. in
  Alcotest.(check int) "floor recovers integer from below" 3
    (Numerics.ifloor_guarded below3);
  Alcotest.(check int) "ceil recovers integer from above" 3
    (Numerics.iceil_guarded above3);
  Alcotest.(check int) "floor exact" 3 (Numerics.ifloor_guarded 3.);
  Alcotest.(check int) "ceil exact" 3 (Numerics.iceil_guarded 3.);
  Alcotest.(check int) "floor fractional" 2 (Numerics.ifloor_guarded 2.5);
  Alcotest.(check int) "ceil fractional" 3 (Numerics.iceil_guarded 2.5);
  Alcotest.(check int) "floor negative from below" (-3)
    (Numerics.ifloor_guarded (Float.pred (-3.)));
  Alcotest.(check int) "ceil negative from above" (-3)
    (Numerics.iceil_guarded (Float.succ (-3.)));
  Alcotest.check_raises "floor rejects nan"
    (Invalid_argument "Numerics.ifloor_guarded: non-finite input")
    (fun () -> ignore (Numerics.ifloor_guarded Float.nan));
  Alcotest.check_raises "ceil rejects infinity"
    (Invalid_argument "Numerics.iceil_guarded: non-finite input")
    (fun () -> ignore (Numerics.iceil_guarded Float.infinity))

let test_integer_argmin () =
  Alcotest.(check int) "parabola" 7
    (Numerics.integer_argmin ~f:(fun p -> float_of_int ((p - 7) * (p - 7)))
       ~lo:1 ~hi:20)

let test_integer_argmin_ties () =
  Alcotest.(check int) "tie breaks small" 1
    (Numerics.integer_argmin ~f:(fun _ -> 1.) ~lo:1 ~hi:10)

let test_integer_argmin_unimodal () =
  let f p = (100. /. float_of_int p) +. float_of_int p in
  Alcotest.(check int) "unimodal matches exhaustive"
    (Numerics.integer_argmin ~f ~lo:1 ~hi:1000)
    (Numerics.integer_argmin_unimodal ~f ~lo:1 ~hi:1000)

let test_harmonic () =
  check_float "H_1" 1. (Numerics.harmonic 1);
  check_float "H_4" (1. +. 0.5 +. (1. /. 3.) +. 0.25) (Numerics.harmonic 4);
  check_float "H_0" 0. (Numerics.harmonic 0)

let prop_golden_finds_vertex =
  QCheck.Test.make ~name:"golden section finds quadratic vertex" ~count:100
    QCheck.(float_range (-50.) 50.)
    (fun v ->
      let x, _ =
        Numerics.golden_section_min
          ~f:(fun x -> (x -. v) ** 2.)
          ~lo:(v -. 10.) ~hi:(v +. 10.) ()
      in
      Float.abs (x -. v) < 1e-5)

(* ----------------------------------------------------------------- Stats *)

let test_stats_mean () = check_float "mean" 2. (Stats.mean [ 1.; 2.; 3. ])

let test_stats_stddev () =
  check_float "sd of constant" 0. (Stats.stddev [ 5.; 5.; 5. ]);
  Alcotest.(check (float 1e-9)) "sd simple" 1.
    (Stats.stddev [ 1.; 2.; 3. ])

let test_stats_percentile () =
  check_float "median" 2. (Stats.quantile 0.5 [ 3.; 1.; 2. ]);
  check_float "min" 1. (Stats.quantile 0. [ 3.; 1.; 2. ]);
  check_float "max" 3. (Stats.quantile 1. [ 3.; 1.; 2. ]);
  check_float "interpolated" 1.5 (Stats.quantile 0.25 [ 1.; 2.; 3. ])

let test_stats_summary () =
  let s = Stats.summarize [ 4.; 1.; 3.; 2. ] in
  Alcotest.(check int) "n" 4 s.Stats.n;
  check_float "min" 1. s.Stats.min;
  check_float "max" 4. s.Stats.max;
  check_float "mean" 2.5 s.Stats.mean

let test_stats_empty () =
  Alcotest.check_raises "empty summarize"
    (Invalid_argument "Stats.summarize: empty sample") (fun () ->
      ignore (Stats.summarize []))

(* A single NaN used to scramble [quantile]'s sort (polymorphic [compare]
   on floats) and flow silently through every aggregate; non-finite samples
   must now be rejected up front. *)
let test_stats_rejects_non_finite () =
  let expect_invalid name f =
    match f () with
    | (_ : float) -> Alcotest.failf "%s accepted a non-finite sample" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "mean nan" (fun () -> Stats.mean [ 1.; nan; 3. ]);
  expect_invalid "mean inf" (fun () -> Stats.mean [ 1.; infinity ]);
  expect_invalid "quantile nan" (fun () ->
      Stats.quantile 0.5 [ nan; 1.; 2. ]);
  expect_invalid "summarize nan" (fun () ->
      (Stats.summarize [ 2.; nan; 1. ]).Stats.median)

let test_stats_percentile_order_robust () =
  (* Regression for the polymorphic-compare sort: negative and denormal
     values must order numerically. *)
  check_float "negative median" (-1.) (Stats.quantile 0.5 [ 3.; -1.; -5. ]);
  check_float "p0 negative" (-5.) (Stats.quantile 0. [ 3.; -1.; -5. ])

(* --------------------------------------------------------------- Texttab *)

let test_texttab_renders () =
  let t = Texttab.create ~headers:[ "a"; "bb" ] in
  Texttab.add_row t [ "1"; "2" ];
  let s = Texttab.render t in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.contains s 'a')

let test_texttab_arity () =
  let t = Texttab.create ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Texttab.add_row: arity mismatch") (fun () ->
      Texttab.add_row t [ "only one" ])

let test_texttab_alignment_width () =
  let t = Texttab.create ~headers:[ "col" ] in
  Texttab.set_aligns t [ Texttab.Right ];
  Texttab.add_row t [ "x" ];
  Texttab.add_row t [ "longer" ];
  let lines = String.split_on_char '\n' (Texttab.render t) in
  let widths = List.filter_map (fun l ->
    if String.length l > 0 && l.[0] = '|' then Some (String.length l) else None)
    lines
  in
  match widths with
  | w :: rest ->
    List.iter (fun w' -> Alcotest.(check int) "equal row widths" w w') rest
  | [] -> Alcotest.fail "no rows rendered"

(* -------------------------------------------------------------- Rng.split_n *)

let test_rng_split_n_matches_split () =
  let a = Rng.create 7 and b = Rng.create 7 in
  let arr = Rng.split_n a 5 in
  Alcotest.(check int) "length" 5 (Array.length arr);
  (* Element i is exactly the i-th successive [split]. *)
  Array.iter
    (fun sib ->
      let manual = Rng.split b in
      for _ = 1 to 8 do
        Alcotest.(check int64) "sibling stream" (Rng.int64 manual)
          (Rng.int64 sib)
      done)
    arr;
  (* The parents advanced identically. *)
  Alcotest.(check int64) "parent stream in sync" (Rng.int64 b) (Rng.int64 a)

let test_rng_split_n_edge () =
  let t = Rng.create 3 in
  Alcotest.(check int) "zero siblings" 0 (Array.length (Rng.split_n t 0));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Rng.split_n: negative count") (fun () ->
      ignore (Rng.split_n t (-1)))

(* Sibling streams must be usable as independent per-cell generators: no
   shared outputs and no pairwise linear correlation.  Deterministic (fixed
   seed), so this either always passes or flags a real generator defect. *)
let test_rng_split_independence () =
  let t = Rng.create 12345 in
  let n_sib = 24 and n_draw = 256 in
  let sibs = Rng.split_n t n_sib in
  (* Overlap: across all siblings, the first 64 raw outputs are distinct. *)
  let seen = Hashtbl.create (n_sib * 64) in
  Array.iter
    (fun sib ->
      let r = Rng.copy sib in
      for _ = 1 to 64 do
        let v = Rng.int64 r in
        Alcotest.(check bool) "no overlap between sibling streams" false
          (Hashtbl.mem seen v);
        Hashtbl.add seen v ()
      done)
    sibs;
  (* Correlation: pairwise Pearson coefficient of the uniform floats. *)
  let draws =
    Array.map
      (fun sib ->
        let r = Rng.copy sib in
        Array.init n_draw (fun _ -> Rng.float r 1.))
      sibs
  in
  let pearson xs ys =
    let n = float_of_int n_draw in
    let mean a = Array.fold_left ( +. ) 0. a /. n in
    let mx = mean xs and my = mean ys in
    let sxy = ref 0. and sxx = ref 0. and syy = ref 0. in
    for i = 0 to n_draw - 1 do
      let dx = xs.(i) -. mx and dy = ys.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy)
    done;
    !sxy /. sqrt (!sxx *. !syy)
  in
  for i = 0 to n_sib - 1 do
    for j = i + 1 to n_sib - 1 do
      let r = pearson draws.(i) draws.(j) in
      if Float.abs r >= 0.3 then
        Alcotest.failf "siblings %d and %d correlate: r = %.3f" i j r
    done
  done

(* ------------------------------------------------------ Stats (one pass) *)

(* Regression: the one-pass summarize must reproduce the historical
   two-pass values (naive mean/stddev, interpolated percentiles). *)
let test_stats_one_pass_regression () =
  let xs = [ 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6.; 5.; 3. ] in
  let s = Stats.summarize xs in
  Alcotest.(check int) "n" 10 s.Stats.n;
  check_float "mean" 3.9 s.Stats.mean;
  check_float "stddev" (sqrt 6.1) s.Stats.stddev;
  check_float "min" 1. s.Stats.min;
  check_float "max" 9. s.Stats.max;
  check_float "median" 3.5 s.Stats.median;
  check_float "p95" 7.65 s.Stats.p95;
  (* And against the independently computed two-pass formulas. *)
  let n = float_of_int (List.length xs) in
  let naive_mean = List.fold_left ( +. ) 0. xs /. n in
  let naive_sd =
    sqrt
      (List.fold_left (fun a x -> a +. ((x -. naive_mean) ** 2.)) 0. xs
      /. (n -. 1.))
  in
  check_float "mean = naive mean" naive_mean s.Stats.mean;
  check_float "stddev = naive stddev" naive_sd s.Stats.stddev;
  check_float "median = quantile 0.5" (Stats.quantile 0.5 xs)
    s.Stats.median;
  check_float "p95 = quantile 0.95" (Stats.quantile 0.95 xs) s.Stats.p95

let test_stats_one_pass_singleton () =
  let s = Stats.summarize [ 2.5 ] in
  Alcotest.(check int) "n" 1 s.Stats.n;
  check_float "mean" 2.5 s.Stats.mean;
  check_float "stddev" 0. s.Stats.stddev;
  check_float "median" 2.5 s.Stats.median;
  check_float "p95" 2.5 s.Stats.p95

let prop_stats_summarize_matches_two_pass =
  QCheck.Test.make ~count:200 ~name:"summarize agrees with two-pass formulas"
    QCheck.(list_of_size (Gen.int_range 1 40) (float_range (-1e6) 1e6))
    (fun xs ->
      let s = Stats.summarize xs in
      let close a b = Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs a) in
      close s.Stats.mean (Stats.mean xs)
      && close s.Stats.stddev (Stats.stddev xs)
      && close s.Stats.median (Stats.quantile 0.5 xs)
      && close s.Stats.p95 (Stats.quantile 0.95 xs)
      && Float.equal s.Stats.min (List.fold_left Float.min Float.infinity xs)
      && Float.equal s.Stats.max
           (List.fold_left Float.max Float.neg_infinity xs))

(* ------------------------------------------------------------------ Pool *)

let test_pool_map_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let arr = Array.init 100 (fun i -> i) in
      Alcotest.(check (array int))
        "order preserved" (Array.map (fun i -> i * i) arr)
        (Pool.parallel_map pool (fun i -> i * i) arr))

let test_pool_map_empty_and_single () =
  Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check (array int)) "empty" [||]
        (Pool.parallel_map pool (fun i -> i + 1) [||]);
      Alcotest.(check (array int)) "single" [| 8 |]
        (Pool.parallel_map pool (fun i -> i * 2) [| 4 |]))

let test_pool_more_jobs_than_items () =
  Pool.with_pool ~jobs:8 (fun pool ->
      Alcotest.(check (list int)) "3 items on 8 jobs" [ 1; 2; 3 ]
        (Pool.map_list pool (fun i -> i + 1) [ 0; 1; 2 ]))

let test_pool_sequential_default () =
  let pool = Pool.create () in
  Alcotest.(check int) "default is 1 job" 1 (Pool.jobs pool);
  Alcotest.(check (array int)) "sequential map" [| 0; 2; 4 |]
    (Pool.parallel_map pool (fun i -> 2 * i) [| 0; 1; 2 |]);
  Pool.shutdown pool;
  Alcotest.check_raises "jobs < 1 rejected"
    (Invalid_argument "Pool.create: jobs must be >= 1") (fun () ->
      ignore (Pool.create ~jobs:0 ()))

let test_pool_exception_and_reuse () =
  Pool.with_pool ~jobs:3 (fun pool ->
      (* The mapped function's exception surfaces on the caller... *)
      (match
         Pool.parallel_map pool
           (fun i -> if i = 5 then failwith "boom" else i)
           (Array.init 10 (fun i -> i))
       with
      | _ -> Alcotest.fail "expected the cell's exception to re-raise"
      | exception Failure msg -> Alcotest.(check string) "message" "boom" msg);
      (* ...and the pool stays usable afterwards. *)
      Alcotest.(check (array int)) "pool survives a failing job"
        [| 0; 1; 4; 9 |]
        (Pool.parallel_map pool (fun i -> i * i) (Array.init 4 (fun i -> i))))

let test_pool_nested_falls_back () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let inner i =
        (* A nested bulk operation on the same pool must not deadlock: it
           degrades to sequential execution on the calling domain. *)
        Array.fold_left ( + ) 0
          (Pool.parallel_map pool (fun j -> i * j) (Array.init 10 (fun j -> j)))
      in
      Alcotest.(check (array int)) "nested map falls back"
        (Array.init 6 (fun i -> i * 45))
        (Pool.parallel_map pool inner (Array.init 6 (fun i -> i))))

let test_pool_parallel_for () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let out = Array.make 101 0 in
      Pool.parallel_for pool ~start:3 ~finish:100 (fun i -> out.(i) <- i);
      Alcotest.(check (array int)) "inclusive bounds"
        (Array.init 101 (fun i -> if i >= 3 then i else 0))
        out;
      (* Empty range is a no-op. *)
      Pool.parallel_for pool ~start:5 ~finish:4 (fun _ ->
          Alcotest.fail "empty range must not run"))

let test_pool_chunk_override () =
  Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.(check (array int)) "chunk=3"
        (Array.init 10 (fun i -> i + 1))
        (Pool.parallel_map ~chunk:3 pool (fun i -> i + 1)
           (Array.init 10 (fun i -> i)));
      Alcotest.check_raises "chunk < 1 rejected"
        (Invalid_argument "Pool: chunk must be >= 1") (fun () ->
          ignore
            (Pool.parallel_map ~chunk:0 pool (fun i -> i)
               (Array.init 4 (fun i -> i)))))

let test_pool_shutdown_rejects () =
  let pool = Pool.create ~jobs:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  Alcotest.check_raises "use after shutdown"
    (Invalid_argument "Pool: pool is shut down") (fun () ->
      ignore (Pool.parallel_map pool (fun i -> i) (Array.init 4 (fun i -> i))))

let prop_pool_map_matches_sequential =
  QCheck.Test.make ~count:30
    ~name:"parallel_map = Array.map at jobs in {1,2,4}"
    QCheck.(pair (int_range 1 3) (list (int_bound 1000)))
    (fun (jobs_sel, xs) ->
      let jobs = [| 1; 2; 4 |].(jobs_sel - 1) in
      let arr = Array.of_list xs in
      let expected = Array.map (fun x -> (2 * x) + 1) arr in
      Pool.with_pool ~jobs (fun pool ->
          expected = Pool.parallel_map pool (fun x -> (2 * x) + 1) arr))

(* ----------------------------------------------------------- quantile *)

(* Sorted-array oracle for the interpolated quantile at rank q * (n - 1). *)
let oracle_quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.of_int (int_of_float pos)) in
  let lo = max 0 (min (n - 1) lo) in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)

let finite_samples =
  QCheck.(
    map
      (fun xs -> List.map (fun i -> float_of_int (i - 500_000) /. 321.7) xs)
      (list_of_size Gen.(int_range 1 80) (int_range 0 1_000_000)))

let prop_quantile_matches_oracle =
  QCheck.Test.make ~name:"Stats.quantile = sorted-array interpolation oracle"
    ~count:200
    QCheck.(pair finite_samples (float_range 0. 1.))
    (fun (xs, q) ->
      let got = Stats.quantile q xs and want = oracle_quantile q xs in
      Float.abs (got -. want) <= 1e-9 *. Float.max 1. (Float.abs want))

let test_quantile_contract () =
  check_float "median of singleton" 42. (Stats.quantile 0.5 [ 42. ]);
  check_float "even-length median interpolates" 2.5
    (Stats.median [ 4.; 1.; 2.; 3. ]);
  check_float "q=0 is min" 1. (Stats.quantile 0. [ 3.; 1.; 2. ]);
  check_float "q=1 is max" 3. (Stats.quantile 1. [ 3.; 1.; 2. ]);
  List.iter
    (fun f -> try ignore (f ()); Alcotest.fail "accepted invalid input"
      with Invalid_argument _ -> ())
    [
      (fun () -> Stats.quantile 0.5 []);
      (fun () -> Stats.quantile 1.5 [ 1. ]);
      (fun () -> Stats.quantile Float.nan [ 1. ]);
      (fun () -> Stats.quantile 0.5 [ Float.nan ]);
      (fun () -> Stats.quantile 0.5 [ Float.infinity ]);
    ]

(* ------------------------------------------------------------------ clock *)

let test_clock_now_monotone () =
  let a = Clock.now () in
  let b = Clock.now () in
  Alcotest.(check bool) "non-decreasing" true (b >= a)

(* CLOCK_MONOTONIC resolves well below a microsecond; the gettimeofday
   clock it replaced only ever stepped by whole microseconds. *)
let test_clock_sub_microsecond () =
  let rec find tries =
    tries > 0
    &&
    let a = Clock.now () in
    let b = Clock.now () in
    let d = b -. a in
    (d > 0. && d < 5e-7) || find (tries - 1)
  in
  Alcotest.(check bool) "nonzero step under 0.5 us" true (find 10_000)

(* The typed-comparator sweep replaced every polymorphic [compare] on
   floats with [Float.compare].  Pin the property the sorts rely on:
   [Float.compare] is a total order even with NaNs (so a sort's result is
   input-order independent) and agrees with what polymorphic compare gave
   on floats, NaN included — the swap cannot have reordered anything. *)
let test_float_compare_nan_total_order () =
  let xs = [ Float.nan; 1.; Float.neg_infinity; Float.nan; 0.; -0.;
             Float.infinity; -1.5 ] in
  let a = List.sort Float.compare xs in
  let b = List.sort Float.compare (List.rev xs) in
  Alcotest.(check bool) "sort is input-order independent" true
    (List.for_all2 (fun x y -> Float.compare x y = 0) a b);
  Alcotest.(check bool) "agrees with polymorphic compare" true
    (List.for_all2
       (fun x y -> Float.compare x y = 0)
       a
       (List.sort compare xs));
  Alcotest.(check int) "nan sorts first" (-1) (Float.compare Float.nan 0.)

(* ------------------------------------------------------------ Float_heap *)

let drain_heap h =
  let rec go acc =
    match Float_heap.pop h with
    | None -> List.rev acc
    | Some kp -> go (kp :: acc)
  in
  go []

(* Pushing a list and draining the heap is a stable sort by key: ties keep
   insertion order, which is exactly [List.stable_sort] on the key alone. *)
let prop_float_heap_heapsort_matches_stable_sort =
  QCheck.Test.make ~name:"Float_heap drain = stable sort by key" ~count:200
    QCheck.(
      list (pair (int_range 0 20) small_nat)
      |> map (fun l -> List.map (fun (k, v) -> (float_of_int k /. 4., v)) l))
    (fun items ->
      let h = Float_heap.create ~capacity:1 () in
      List.iter (fun (k, v) -> Float_heap.push h ~key:k v) items;
      let expected =
        List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) items
      in
      drain_heap h = expected)

let test_float_heap_fifo_ties () =
  let h = Float_heap.create () in
  (* Equal keys interleaved with other keys: equal keys must come back in
     insertion order regardless of sift movements. *)
  Float_heap.push h ~key:5. 0;
  Float_heap.push h ~key:1. 10;
  Float_heap.push h ~key:1. 11;
  Float_heap.push h ~key:0.5 20;
  Float_heap.push h ~key:1. 12;
  Float_heap.push h ~key:5. 1;
  Float_heap.push h ~key:1. 13;
  Alcotest.(check (list (pair (float 0.) int)))
    "fifo within equal keys"
    [ (0.5, 20); (1., 10); (1., 11); (1., 12); (1., 13); (5., 0); (5., 1) ]
    (drain_heap h)

let test_float_heap_growth () =
  (* Start below capacity 1 and push far past it; order must survive every
     doubling. *)
  let h = Float_heap.create ~capacity:1 () in
  let n = 1000 in
  for i = 0 to n - 1 do
    Float_heap.push h ~key:(float_of_int ((i * 7919) mod 257)) i
  done;
  Alcotest.(check int) "length" n (Float_heap.length h);
  let drained = drain_heap h in
  Alcotest.(check int) "drained all" n (List.length drained);
  let keys = List.map fst drained in
  Alcotest.(check bool) "keys ascending" true
    (List.for_all2 (fun a b -> a <= b) keys (List.tl keys @ [ infinity ]));
  Alcotest.(check bool) "empty at end" true (Float_heap.is_empty h)

let test_float_heap_clear_resets_seq () =
  let h = Float_heap.create () in
  Float_heap.push h ~key:1. 1;
  Float_heap.push h ~key:1. 2;
  Float_heap.clear h;
  Alcotest.(check bool) "cleared" true (Float_heap.is_empty h);
  (* After clear the FIFO counter restarts: insertion order still rules. *)
  Float_heap.push h ~key:3. 7;
  Float_heap.push h ~key:3. 8;
  Alcotest.(check (list (pair (float 0.) int)))
    "fresh fifo after clear"
    [ (3., 7); (3., 8) ]
    (drain_heap h)

let test_float_heap_rejects_nonfinite () =
  let h = Float_heap.create () in
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        "push rejects non-finite key" true
        (try
           Float_heap.push h ~key:bad 0;
           false
         with Invalid_argument _ -> true))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  Alcotest.(check bool) "heap untouched" true (Float_heap.is_empty h)

(* Random push/pop interleavings against the boxed Pqueue as reference. *)
let prop_float_heap_interleaving_matches_pqueue =
  QCheck.Test.make ~name:"Float_heap push/pop interleaving = Pqueue oracle"
    ~count:200
    QCheck.(list (option (pair (int_range 0 50) small_nat)))
    (fun ops ->
      (* [Some (k, v)] = push, [None] = pop.  The oracle orders by
         (key, seq) like the heap. *)
      let cmp (ka, sa, _) (kb, sb, _) =
        match Float.compare ka kb with 0 -> Int.compare sa sb | c -> c
      in
      let h = Float_heap.create ~capacity:1 () in
      let q = Pqueue.create ~cmp in
      let seq = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | Some (k, v) ->
            let key = float_of_int k /. 8. in
            Float_heap.push h ~key v;
            Pqueue.push q (key, !seq, v);
            incr seq;
            Float_heap.length h = Pqueue.length q
          | None -> (
            match (Float_heap.pop h, Pqueue.pop q) with
            | None, None -> true
            | Some (k, v), Some (k', _, v') ->
              Float.equal k k' && v = v'
            | _ -> false))
        ops
      && drain_heap h
         = List.map (fun (k, _, v) -> (k, v)) (Pqueue.to_sorted_list q))

(* --------------------------------------------------------------- Growbuf *)

let test_growbuf_float_int () =
  let f = Growbuf.F.create ~capacity:1 () in
  let i = Growbuf.I.create ~capacity:1 () in
  for k = 0 to 99 do
    Growbuf.F.push f (float_of_int k *. 1.5);
    Growbuf.I.push i (k * 3)
  done;
  Alcotest.(check int) "F length" 100 (Growbuf.F.length f);
  Alcotest.(check int) "I length" 100 (Growbuf.I.length i);
  check_float "F get" 73.5 (Growbuf.F.get f 49);
  Alcotest.(check int) "I get" 147 (Growbuf.I.get i 49);
  Growbuf.F.clear f;
  Growbuf.I.clear i;
  Alcotest.(check int) "F cleared" 0 (Growbuf.F.length f);
  Alcotest.(check int) "I cleared" 0 (Growbuf.I.length i);
  (* Reuse after clear starts from index 0 again. *)
  Growbuf.F.push f 2.5;
  check_float "F reuse" 2.5 (Growbuf.F.get f 0);
  Alcotest.(check bool) "F get past len raises" true
    (try
       ignore (Growbuf.F.get f 1);
       false
     with Invalid_argument _ -> true)

let test_growbuf_poly () =
  let a = Growbuf.A.create ~capacity:1 ~dummy:[||] () in
  for k = 0 to 19 do
    Growbuf.A.push a (Array.make 1 k)
  done;
  Alcotest.(check int) "A length" 20 (Growbuf.A.length a);
  Alcotest.(check int) "A get" 13 (Growbuf.A.get a 13).(0);
  Growbuf.A.clear a;
  Alcotest.(check int) "A cleared" 0 (Growbuf.A.length a);
  Alcotest.(check bool) "A get after clear raises" true
    (try
       ignore (Growbuf.A.get a 0);
       false
     with Invalid_argument _ -> true)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "util"
    [
      ( "fcmp",
        [
          Alcotest.test_case "approx exact" `Quick test_approx_exact;
          Alcotest.test_case "approx close" `Quick test_approx_close;
          Alcotest.test_case "approx far" `Quick test_approx_far;
          Alcotest.test_case "approx relative" `Quick test_approx_relative;
          Alcotest.test_case "leq strict" `Quick test_leq_strict;
          Alcotest.test_case "leq tolerant" `Quick test_leq_tolerant;
          Alcotest.test_case "lt/gt" `Quick test_lt_gt;
          Alcotest.test_case "clamp" `Quick test_clamp;
          Alcotest.test_case "compare_approx" `Quick test_compare_approx;
          Alcotest.test_case "Float.compare NaN total order" `Quick
            test_float_compare_nan_total_order;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_range bounds" `Quick test_rng_int_range_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "log_uniform bounds" `Quick test_rng_log_uniform_bounds;
          Alcotest.test_case "bernoulli p=0" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "uniform mean" `Quick test_rng_mean_uniform;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "invalid args" `Quick test_rng_invalid_args;
          Alcotest.test_case "split_n matches split" `Quick
            test_rng_split_n_matches_split;
          Alcotest.test_case "split_n edge cases" `Quick test_rng_split_n_edge;
          Alcotest.test_case "split_n sibling independence" `Quick
            test_rng_split_independence;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "sorted order" `Quick test_pqueue_order;
          Alcotest.test_case "push/pop" `Quick test_pqueue_push_pop;
          Alcotest.test_case "empty" `Quick test_pqueue_empty;
          Alcotest.test_case "duplicates" `Quick test_pqueue_duplicates;
          Alcotest.test_case "clear" `Quick test_pqueue_clear;
          Alcotest.test_case "custom cmp" `Quick test_pqueue_custom_cmp;
          Alcotest.test_case "to_sorted nondestructive" `Quick
            test_pqueue_to_sorted_nondestructive;
          Alcotest.test_case "push_list" `Quick test_pqueue_push_list;
          Alcotest.test_case "copy is independent" `Quick
            test_pqueue_copy_independent;
          qt prop_pqueue_sorts;
          qt prop_pqueue_push_list_like_of_list;
        ] );
      ( "prefix_min",
        [
          Alcotest.test_case "basic queries" `Quick test_prefix_min_basic;
          Alcotest.test_case "rejects bad keys" `Quick
            test_prefix_min_rejects_bad_keys;
          qt prop_prefix_min_matches_model;
        ] );
      ( "rank_queue",
        [
          Alcotest.test_case "basic queries" `Quick test_ranked_queue_basic;
          Alcotest.test_case "push and pop allocate nothing" `Quick
            test_ranked_queue_allocates_nothing;
        ] );
      ( "numerics",
        [
          Alcotest.test_case "golden quadratic" `Quick test_golden_quadratic;
          Alcotest.test_case "minimize nonconvex" `Quick test_minimize_nonconvex;
          Alcotest.test_case "bisect sqrt2" `Quick test_bisect_sqrt2;
          Alcotest.test_case "bisect no sign change" `Quick
            test_bisect_no_sign_change;
          Alcotest.test_case "bisect signed-zero root" `Quick
            test_bisect_signed_zero_root;
          Alcotest.test_case "bisect denormal values" `Quick
            test_bisect_denormal_values;
          Alcotest.test_case "bisect rejects NaN" `Quick test_bisect_rejects_nan;
          Alcotest.test_case "grid_min skips NaN" `Quick test_grid_min_skips_nan;
          Alcotest.test_case "minimize skips NaN" `Quick test_minimize_skips_nan;
          Alcotest.test_case "ilog2" `Quick test_ilog2;
          Alcotest.test_case "guarded rounding" `Quick test_guarded_rounding;
          Alcotest.test_case "integer argmin" `Quick test_integer_argmin;
          Alcotest.test_case "integer argmin ties" `Quick test_integer_argmin_ties;
          Alcotest.test_case "argmin unimodal" `Quick test_integer_argmin_unimodal;
          Alcotest.test_case "harmonic" `Quick test_harmonic;
          qt prop_golden_finds_vertex;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "rejects non-finite" `Quick
            test_stats_rejects_non_finite;
          Alcotest.test_case "percentile order" `Quick
            test_stats_percentile_order_robust;
          Alcotest.test_case "one-pass regression" `Quick
            test_stats_one_pass_regression;
          Alcotest.test_case "one-pass singleton" `Quick
            test_stats_one_pass_singleton;
          qt prop_stats_summarize_matches_two_pass;
          Alcotest.test_case "quantile contract" `Quick
            test_quantile_contract;
          qt prop_quantile_matches_oracle;
        ] );
      ( "clock",
        [
          Alcotest.test_case "now monotone" `Quick test_clock_now_monotone;
          Alcotest.test_case "sub-microsecond step" `Quick
            test_clock_sub_microsecond;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
          Alcotest.test_case "empty and single item" `Quick
            test_pool_map_empty_and_single;
          Alcotest.test_case "more jobs than items" `Quick
            test_pool_more_jobs_than_items;
          Alcotest.test_case "sequential default" `Quick
            test_pool_sequential_default;
          Alcotest.test_case "exception surfaces, pool reusable" `Quick
            test_pool_exception_and_reuse;
          Alcotest.test_case "nested map falls back" `Quick
            test_pool_nested_falls_back;
          Alcotest.test_case "parallel_for" `Quick test_pool_parallel_for;
          Alcotest.test_case "chunk override" `Quick test_pool_chunk_override;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown_rejects;
          qt prop_pool_map_matches_sequential;
        ] );
      ( "texttab",
        [
          Alcotest.test_case "renders" `Quick test_texttab_renders;
          Alcotest.test_case "arity" `Quick test_texttab_arity;
          Alcotest.test_case "alignment width" `Quick test_texttab_alignment_width;
        ] );
      ( "float_heap",
        [
          qt prop_float_heap_heapsort_matches_stable_sort;
          Alcotest.test_case "fifo tie-break" `Quick test_float_heap_fifo_ties;
          Alcotest.test_case "growth past capacity" `Quick
            test_float_heap_growth;
          Alcotest.test_case "clear resets fifo" `Quick
            test_float_heap_clear_resets_seq;
          Alcotest.test_case "rejects non-finite keys" `Quick
            test_float_heap_rejects_nonfinite;
          qt prop_float_heap_interleaving_matches_pqueue;
        ] );
      ( "growbuf",
        [
          Alcotest.test_case "float/int buffers" `Quick test_growbuf_float_int;
          Alcotest.test_case "boxed buffer" `Quick test_growbuf_poly;
        ] );
    ]
