open Moldable_model
open Moldable_util

let check_float = Alcotest.(check (float 1e-9))

let roofline ~w ~ptilde = Speedup.Roofline { w; ptilde }
let comm ~w ~c = Speedup.Communication { w; c }
let amdahl ~w ~d = Speedup.Amdahl { w; d }
let general ~w ~ptilde ~d ~c = Speedup.General { w; ptilde; d; c }

(* --------------------------------------------------------------- Speedup *)

let test_roofline_time () =
  let m = roofline ~w:12. ~ptilde:4 in
  check_float "t(1)" 12. (Speedup.time m 1);
  check_float "t(2)" 6. (Speedup.time m 2);
  check_float "t(4)" 3. (Speedup.time m 4);
  check_float "t(8) saturates" 3. (Speedup.time m 8)

let test_comm_time () =
  let m = comm ~w:10. ~c:1. in
  check_float "t(1)" 10. (Speedup.time m 1);
  check_float "t(2)" 6. (Speedup.time m 2);
  check_float "t(5)" 6. (Speedup.time m 5)

let test_amdahl_time () =
  let m = amdahl ~w:10. ~d:2. in
  check_float "t(1)" 12. (Speedup.time m 1);
  check_float "t(10)" 3. (Speedup.time m 10)

let test_general_subsumes () =
  (* With d = c = 0 the general model equals roofline. *)
  let g = general ~w:12. ~ptilde:4 ~d:0. ~c:0. in
  let r = roofline ~w:12. ~ptilde:4 in
  for p = 1 to 10 do
    check_float
      (Printf.sprintf "t(%d)" p)
      (Speedup.time r p) (Speedup.time g p)
  done

let test_canonical_general_agrees () =
  let models =
    [ roofline ~w:7. ~ptilde:3; comm ~w:9. ~c:0.5; amdahl ~w:20. ~d:1.5 ]
  in
  List.iter
    (fun m ->
      match Speedup.canonical_general m with
      | None -> Alcotest.fail "expected a canonical form"
      | Some g ->
        for p = 1 to 16 do
          check_float "canonical time agrees" (Speedup.time m p)
            (Speedup.time g p)
        done)
    models

let test_area_definition () =
  let m = amdahl ~w:10. ~d:2. in
  for p = 1 to 8 do
    check_float "a = p t" (float_of_int p *. Speedup.time m p)
      (Speedup.area m p)
  done

let test_speedup_efficiency () =
  let m = roofline ~w:10. ~ptilde:100 in
  check_float "speedup(4) = 4 under linear scaling" 4. (Speedup.speedup m 4);
  check_float "efficiency(4) = 1" 1. (Speedup.speedup m 4 /. 4.)

let test_power_time () =
  let m = Speedup.Power { w = 100.; alpha = 0.5 } in
  check_float "t(1)" 100. (Speedup.time m 1);
  check_float "t(4)" 50. (Speedup.time m 4);
  check_float "t(100)" 10. (Speedup.time m 100);
  (* alpha = 1 degenerates to unbounded linear speedup. *)
  let linear = Speedup.Power { w = 100.; alpha = 1. } in
  check_float "linear t(10)" 10. (Speedup.time linear 10)

(* Lemma 1's monotonic property, checked by evaluating the model on
   [1 .. p_max]: time non-increasing, area non-decreasing, up to Fcmp's
   tolerance. *)
let lemma1_scan (a : Task.analyzed) =
  let t = a.Task.task in
  let ok = ref true in
  for q = 1 to a.Task.p_max - 1 do
    if not (Fcmp.geq (Task.time t q) (Task.time t (q + 1))) then ok := false;
    if not (Fcmp.leq (Task.area t q) (Task.area t (q + 1))) then ok := false
  done;
  !ok

let test_power_analysis () =
  let t = Task.make ~id:0 (Speedup.Power { w = 64.; alpha = 0.5 }) in
  let a = Task.analyze ~p:16 t in
  Alcotest.(check int) "p_max = P (always improves)" 16 a.Task.p_max;
  check_float "t_min" 16. a.Task.t_min;
  check_float "a_min = a(1)" 64. a.Task.a_min;
  Alcotest.(check bool) "monotonic" true (lemma1_scan a)

let test_power_validate () =
  List.iter
    (fun (m, ok) ->
      Alcotest.(check bool) (Speedup.to_string m) ok
        (Result.is_ok (Speedup.validate m)))
    [
      (Speedup.Power { w = 1.; alpha = 0.5 }, true);
      (Speedup.Power { w = 1.; alpha = 1. }, true);
      (Speedup.Power { w = 0.; alpha = 0.5 }, false);
      (Speedup.Power { w = 1.; alpha = 0. }, false);
      (Speedup.Power { w = 1.; alpha = 1.5 }, false);
    ]

let test_validate_rejects () =
  let bad =
    [
      roofline ~w:0. ~ptilde:4;
      roofline ~w:5. ~ptilde:0;
      comm ~w:(-1.) ~c:1.;
      comm ~w:1. ~c:0.;
      amdahl ~w:1. ~d:0.;
      general ~w:1. ~ptilde:1 ~d:(-1.) ~c:0.;
      general ~w:1. ~ptilde:1 ~d:0. ~c:(-2.);
    ]
  in
  List.iter
    (fun m ->
      match Speedup.validate m with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "accepted invalid model %s" (Speedup.to_string m))
    bad

let test_validate_accepts () =
  let good =
    [
      roofline ~w:1. ~ptilde:1;
      comm ~w:1. ~c:0.001;
      amdahl ~w:1. ~d:0.001;
      general ~w:1. ~ptilde:5 ~d:0. ~c:0.;
      Speedup.Arbitrary { name = "const"; time = (fun _ -> 1.) };
    ]
  in
  List.iter
    (fun m ->
      match Speedup.validate m with
      | Ok () -> ()
      | Error e -> Alcotest.failf "rejected valid model: %s" e)
    good

let test_time_requires_positive_p () =
  Alcotest.check_raises "p = 0"
    (Invalid_argument "Speedup.time: p must be >= 1") (fun () ->
      ignore (Speedup.time (roofline ~w:1. ~ptilde:1) 0))

let test_kind () =
  Alcotest.(check string) "roofline" "roofline"
    (Speedup.kind_name (Speedup.kind (roofline ~w:1. ~ptilde:1)));
  Alcotest.(check string) "communication" "communication"
    (Speedup.kind_name (Speedup.kind (comm ~w:1. ~c:1.)));
  Alcotest.(check string) "amdahl" "amdahl"
    (Speedup.kind_name (Speedup.kind (amdahl ~w:1. ~d:1.)));
  Alcotest.(check string) "general" "general"
    (Speedup.kind_name (Speedup.kind (general ~w:1. ~ptilde:1 ~d:0. ~c:0.)))

(* ------------------------------------------------------------------ Task *)

let task m = Task.make ~id:0 m

let test_pmax_roofline () =
  let a = Task.analyze ~p:100 (task (roofline ~w:10. ~ptilde:7)) in
  Alcotest.(check int) "p_max = ptilde" 7 a.Task.p_max;
  let a = Task.analyze ~p:5 (task (roofline ~w:10. ~ptilde:7)) in
  Alcotest.(check int) "p_max = P when P < ptilde" 5 a.Task.p_max

let test_pmax_amdahl_is_p () =
  let a = Task.analyze ~p:64 (task (amdahl ~w:10. ~d:1.)) in
  Alcotest.(check int) "always improves" 64 a.Task.p_max

let test_pmax_comm_sqrt () =
  (* w/c = 100: the continuous optimum is exactly 10. *)
  let a = Task.analyze ~p:1000 (task (comm ~w:100. ~c:1.)) in
  Alcotest.(check int) "p_max = sqrt(w/c)" 10 a.Task.p_max

let test_pmax_comm_capped_by_p () =
  let a = Task.analyze ~p:4 (task (comm ~w:100. ~c:1.)) in
  Alcotest.(check int) "capped at P" 4 a.Task.p_max

let test_pmax_comm_extreme_ratio () =
  (* sqrt (w /. c) overflows to a huge float here; the unclamped seed fed it
     straight into [int_of_float], whose result is unspecified outside the
     int range (it came out as a garbage allotment, reported as p_max = 1).
     The clamp must land on p_max = P: with w/c this large the time is
     strictly decreasing over all of [1, P]. *)
  let a = Task.analyze ~p:8 (task (comm ~w:1e300 ~c:1e-300)) in
  Alcotest.(check int) "p_max = P under extreme w/c" 8 a.Task.p_max;
  Alcotest.(check int)
    "matches exhaustive scan" 8
    (Moldable_oracle.Task_reference.p_max_scan ~p:8 (task (comm ~w:1e300 ~c:1e-300)));
  (* The mirror extreme: communication dominates, the optimum is p = 1. *)
  let a = Task.analyze ~p:8 (task (comm ~w:1e-300 ~c:1e300)) in
  Alcotest.(check int) "p_max = 1 under extreme c/w" 1 a.Task.p_max

let test_pmax_matches_scan () =
  let rng = Rng.create 1234 in
  for _ = 1 to 200 do
    let w = Rng.log_uniform rng 1. 1000. in
    let m =
      match Rng.int rng 4 with
      | 0 -> roofline ~w ~ptilde:(Rng.int_range rng 1 64)
      | 1 -> comm ~w ~c:(Rng.log_uniform rng 0.001 10.)
      | 2 -> amdahl ~w ~d:(Rng.log_uniform rng 0.01 10.)
      | _ ->
        general ~w
          ~ptilde:(Rng.int_range rng 1 64)
          ~d:(Rng.log_uniform rng 0.01 10.)
          ~c:(Rng.log_uniform rng 0.001 10.)
    in
    let p = Rng.int_range rng 1 128 in
    let a = Task.analyze ~p (task m) in
    let scan = Moldable_oracle.Task_reference.p_max_scan ~p (task m) in
    (* Closed form and scan may disagree on the argument only when the times
       tie; the minimum time itself must agree. *)
    if
      not
        (Fcmp.approx
           (Task.time (task m) a.Task.p_max)
           (Task.time (task m) scan))
    then
      Alcotest.failf "p_max mismatch for %s at P=%d: closed=%d scan=%d"
        (Speedup.to_string m) p a.Task.p_max scan
  done

let test_tmin_amin () =
  let a = Task.analyze ~p:10 (task (amdahl ~w:10. ~d:1.)) in
  check_float "t_min = t(P)" 2. a.Task.t_min;
  check_float "a_min = a(1)" 11. a.Task.a_min

let test_alpha_beta_at_extremes () =
  let a = Task.analyze ~p:10 (task (amdahl ~w:10. ~d:1.)) in
  check_float "alpha(1) = 1" 1. (Task.alpha a 1);
  check_float "beta(p_max) = 1" 1. (Task.beta a a.Task.p_max)

let test_monotonic_closed_models () =
  let rng = Rng.create 99 in
  for _ = 1 to 100 do
    let w = Rng.log_uniform rng 1. 500. in
    let m =
      match Rng.int rng 4 with
      | 0 -> roofline ~w ~ptilde:(Rng.int_range rng 1 32)
      | 1 -> comm ~w ~c:(Rng.log_uniform rng 0.01 5.)
      | 2 -> amdahl ~w ~d:(Rng.log_uniform rng 0.01 5.)
      | _ ->
        general ~w
          ~ptilde:(Rng.int_range rng 1 32)
          ~d:(Rng.log_uniform rng 0.01 5.)
          ~c:(Rng.log_uniform rng 0.01 5.)
    in
    let a = Task.analyze ~p:(Rng.int_range rng 1 64) (task m) in
    if not (lemma1_scan a) then
      Alcotest.failf "Lemma 1 violated for %s" (Speedup.to_string m)
  done

let test_no_superlinear_speedup () =
  (* Equation (6): t(p)/t(q) <= q/p for p < q <= p_max. *)
  let rng = Rng.create 7 in
  for _ = 1 to 100 do
    let m =
      general
        ~w:(Rng.log_uniform rng 1. 100.)
        ~ptilde:(Rng.int_range rng 1 64)
        ~d:(Rng.log_uniform rng 0.01 1.)
        ~c:(Rng.log_uniform rng 0.001 1.)
    in
    let a = Task.analyze ~p:32 (task m) in
    for p = 1 to a.Task.p_max - 1 do
      for q = p + 1 to a.Task.p_max do
        let lhs = Task.time a.Task.task p /. Task.time a.Task.task q in
        let rhs = float_of_int q /. float_of_int p in
        if not (Fcmp.leq lhs rhs) then
          Alcotest.failf "superlinear speedup: t(%d)/t(%d)=%.4f > %d/%d" p q
            lhs q p
      done
    done
  done

let test_arbitrary_analyze () =
  (* V-shaped arbitrary time function with minimum at p = 3. *)
  let time p = float_of_int (abs (p - 3)) +. 1. in
  let a =
    Task.analyze ~p:10
      (task (Speedup.Arbitrary { name = "vee"; time }))
  in
  Alcotest.(check int) "argmin" 3 a.Task.p_max;
  check_float "t_min" 1. a.Task.t_min

let test_make_rejects_invalid () =
  Alcotest.check_raises "invalid speedup"
    (Invalid_argument "Task.make: roofline: w must be > 0") (fun () ->
      ignore (Task.make ~id:0 (roofline ~w:0. ~ptilde:1)))

let test_label_default () =
  let t = Task.make ~id:7 (roofline ~w:1. ~ptilde:1) in
  Alcotest.(check string) "default label" "t7" t.Task.label

let prop_alpha_nondecreasing =
  QCheck.Test.make ~name:"alpha non-decreasing on [1,p_max] (closed models)"
    ~count:200
    QCheck.(triple (float_range 1. 500.) (float_range 0.01 5.) (int_range 2 64))
    (fun (w, d, p) ->
      let a = Task.analyze ~p (task (amdahl ~w ~d)) in
      let ok = ref true in
      for q = 1 to a.Task.p_max - 1 do
        if Fcmp.lt (Task.alpha a (q + 1)) (Task.alpha a q) then ok := false
      done;
      !ok)

let prop_beta_nonincreasing =
  QCheck.Test.make ~name:"beta non-increasing on [1,p_max] (closed models)"
    ~count:200
    QCheck.(triple (float_range 1. 500.) (float_range 0.01 5.) (int_range 2 64))
    (fun (w, c, p) ->
      let a = Task.analyze ~p (task (comm ~w ~c)) in
      let ok = ref true in
      for q = 1 to a.Task.p_max - 1 do
        if Fcmp.lt (Task.beta a q) (Task.beta a (q + 1)) then ok := false
      done;
      !ok)

(* ------------------------------------------------- allocation kernels *)

(* A model of every family with [ptilde] below, at or above [p], [c = 0]
   in the general model, and extreme [w]/[c] ratios. *)
let kernel_model rng ~p =
  let pick a = a.(Rng.int rng (Array.length a)) in
  let w () =
    if Rng.int rng 8 = 0 then pick [| 1e-300; 1e300 |]
    else Rng.log_uniform rng 1e-3 1e6
  in
  let c () =
    if Rng.int rng 8 = 0 then pick [| 1e-300; 1e300 |]
    else Rng.log_uniform rng 1e-6 1e3
  in
  let ptilde () =
    match Rng.int rng 4 with
    | 0 -> Int.max 1 (p - 1 - Rng.int rng p)
    | 1 -> p
    | 2 -> p + 1 + Rng.int rng 64
    | _ -> max_int
  in
  match Rng.int rng 6 with
  | 0 -> roofline ~w:(w ()) ~ptilde:(ptilde ())
  | 1 -> comm ~w:(w ()) ~c:(c ())
  | 2 -> amdahl ~w:(w ()) ~d:(Rng.log_uniform rng 1e-3 1e3)
  | 3 ->
    general ~w:(w ()) ~ptilde:(ptilde ())
      ~d:(if Rng.int rng 2 = 0 then 0. else Rng.log_uniform rng 1e-3 1e3)
      ~c:(if Rng.int rng 3 = 0 then 0. else c ())
  | 4 -> Speedup.Power { w = w (); alpha = Rng.float_range rng 0.1 1. }
  | _ ->
    let w = w () in
    Speedup.Arbitrary { name = "rand"; time = (fun q -> w /. float_of_int q) }

(* The engine launches closed-form tasks from the parameters
   [store_closed] copies into its flat arrays, through [flat_time]. *)
let prop_flat_time_equals_time =
  QCheck.Test.make
    ~name:"flat parameters time every closed form as Task.time, bit for bit"
    ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let p = Rng.int_range rng 1 300 in
      let m = kernel_model rng ~p in
      let t = task m in
      let off = Rng.int rng 4 in
      let dst = Array.make (off + 3) (-1.) in
      let ptilde = Speedup.store_closed m dst off in
      match m with
      | Speedup.Power _ | Speedup.Arbitrary _ ->
        (* No closed form: the engine falls back to [Task.time]. *)
        ptilde = 0 && Array.for_all (Float.equal (-1.)) dst
      | Speedup.Roofline _ | Speedup.Communication _ | Speedup.Amdahl _
      | Speedup.General _ ->
        ptilde > 0
        &&
        let ok = ref true in
        for q = 1 to p do
          if
            not
              (Float.equal (Speedup.flat_time dst off ~ptilde q)
                 (Task.time t q))
          then ok := false
        done;
        !ok || QCheck.Test.fail_reportf "%s differs" (Speedup.to_string m))

(* Equation (5) and the Step-1 bisection must decide as [Fcmp.leq] does:
   against the definitions written with [Fcmp] on [Speedup.time], at bounds
   within a few tolerances of a probed time. *)
let pbar_fcmp ~w ~c ~p m =
  let s = Float.min (float_of_int p) (Float.max 1. (sqrt (w /. c))) in
  let lo = Int.max 1 (int_of_float (floor s)) in
  let hi = Int.max lo (int_of_float (ceil s)) in
  if Fcmp.leq (Speedup.time m lo) (Speedup.time m hi) then lo else hi

let p_max_fcmp ~p m =
  match m with
  | Speedup.Roofline { ptilde; _ } -> Int.min p ptilde
  | Speedup.Communication { w; c } -> Int.min p (pbar_fcmp ~w ~c ~p m)
  | Speedup.General { w; ptilde; c; _ } when c > 0. ->
    Int.min p (Int.min ptilde (pbar_fcmp ~w ~c ~p m))
  | Speedup.General { ptilde; _ } -> Int.min p ptilde
  | Speedup.Amdahl _ | Speedup.Power _ -> p
  | Speedup.Arbitrary _ -> -1

let smallest_fcmp m ~p_max bound =
  let feasible q = Fcmp.leq (Speedup.time m q) bound in
  if feasible 1 then 1
  else begin
    let lo = ref 1 and hi = ref p_max in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if feasible mid then hi := mid else lo := mid
    done;
    !hi
  end

let prop_kernels_decide_as_fcmp =
  QCheck.Test.make
    ~name:"p_max and the Step-1 bisection decide as Fcmp.leq" ~count:1000
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let p = Rng.int_range rng 1 2048 in
      let m = kernel_model rng ~p in
      let p_max = Speedup.closed_p_max ~p m in
      p_max = p_max_fcmp ~p m
      && (p_max < 1
         ||
         let q = Rng.int_range rng 1 p_max in
         let eps =
           Fcmp.default_eps *. float_of_int (Rng.int_range rng (-3) 3)
         in
         let bound =
           (Speedup.time m q *. (1. +. eps))
           +. if Rng.int rng 2 = 0 then 0. else eps
         in
         let bound = Float.max bound (Speedup.time m p_max) in
         Speedup.smallest_within m ~p_max bound = smallest_fcmp m ~p_max bound))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "model"
    [
      ( "speedup",
        [
          Alcotest.test_case "roofline time" `Quick test_roofline_time;
          Alcotest.test_case "communication time" `Quick test_comm_time;
          Alcotest.test_case "amdahl time" `Quick test_amdahl_time;
          Alcotest.test_case "general subsumes roofline" `Quick
            test_general_subsumes;
          Alcotest.test_case "canonical general agrees" `Quick
            test_canonical_general_agrees;
          Alcotest.test_case "area definition" `Quick test_area_definition;
          Alcotest.test_case "speedup/efficiency" `Quick test_speedup_efficiency;
          Alcotest.test_case "power-law time" `Quick test_power_time;
          Alcotest.test_case "power-law analysis" `Quick test_power_analysis;
          Alcotest.test_case "power-law validation" `Quick test_power_validate;
          Alcotest.test_case "validate rejects" `Quick test_validate_rejects;
          Alcotest.test_case "validate accepts" `Quick test_validate_accepts;
          Alcotest.test_case "time needs p >= 1" `Quick
            test_time_requires_positive_p;
          Alcotest.test_case "kind names" `Quick test_kind;
        ] );
      ( "task",
        [
          Alcotest.test_case "p_max roofline" `Quick test_pmax_roofline;
          Alcotest.test_case "p_max amdahl" `Quick test_pmax_amdahl_is_p;
          Alcotest.test_case "p_max communication sqrt" `Quick
            test_pmax_comm_sqrt;
          Alcotest.test_case "p_max survives extreme w/c ratios" `Quick
            test_pmax_comm_extreme_ratio;
          Alcotest.test_case "p_max capped by P" `Quick
            test_pmax_comm_capped_by_p;
          Alcotest.test_case "p_max matches exhaustive scan" `Quick
            test_pmax_matches_scan;
          Alcotest.test_case "t_min and a_min" `Quick test_tmin_amin;
          Alcotest.test_case "alpha/beta extremes" `Quick
            test_alpha_beta_at_extremes;
          Alcotest.test_case "Lemma 1 monotonicity" `Quick
            test_monotonic_closed_models;
          Alcotest.test_case "Equation (6): no superlinear speedup" `Quick
            test_no_superlinear_speedup;
          Alcotest.test_case "arbitrary model analysis" `Quick
            test_arbitrary_analyze;
          Alcotest.test_case "make rejects invalid" `Quick
            test_make_rejects_invalid;
          Alcotest.test_case "default label" `Quick test_label_default;
          qt prop_alpha_nondecreasing;
          qt prop_beta_nonincreasing;
        ] );
      ( "kernels",
        [ qt prop_flat_time_equals_time; qt prop_kernels_decide_as_fcmp ] );
    ]
