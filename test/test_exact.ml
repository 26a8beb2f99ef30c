(* Differential tests for the exact rational shadow oracle (test/oracle/exact):
   Bigint/Rat arithmetic against native ints and IEEE round-trips, the
   exact speedup models and Algorithm 2 against the float pipeline, the
   shadow replayer on random simulations across every speedup family, and
   the float-floor audit of the adversarial instance constructors. *)

open Moldable_util
open Moldable_model
open Moldable_graph
open Moldable_core
open Moldable_exact

let bi = Bigint.of_int
let bi_str b = Bigint.to_string b

(* ---------------------------------------------------------------- Bigint *)

let test_bigint_basics () =
  Alcotest.(check string) "zero" "0" (bi_str Bigint.zero);
  Alcotest.(check string) "min_int survives"
    (string_of_int min_int)
    (bi_str (bi min_int));
  Alcotest.(check string) "max_int survives"
    (string_of_int max_int)
    (bi_str (bi max_int));
  Alcotest.(check (option int)) "roundtrip" (Some (-123456789))
    (Bigint.to_int_opt (bi (-123456789)));
  Alcotest.(check (option int)) "overflow detected" None
    (Bigint.to_int_opt (Bigint.mul (bi max_int) (bi 2)))

let test_bigint_big_products () =
  (* (2^62)^4 = 2^248, far past native range; divide back down. *)
  let x = Bigint.pow (bi 2) 248 in
  let y = Bigint.pow (bi 2) 186 in
  Alcotest.(check string) "2^248 / 2^186 = 2^62"
    (bi_str (Bigint.pow (bi 2) 62))
    (bi_str (Bigint.div x y));
  Alcotest.(check string) "rem 0" "0" (bi_str (Bigint.rem x y));
  Alcotest.(check int) "bit_length" 249 (Bigint.bit_length x);
  Alcotest.(check string) "isqrt of square" (bi_str (Bigint.pow (bi 2) 124))
    (bi_str (Bigint.isqrt x))

let prop_bigint_matches_int_arith =
  QCheck.Test.make ~name:"Bigint add/sub/mul/divmod/gcd match native ints"
    ~count:2000
    QCheck.(pair (int_range (-1_000_000_000) 1_000_000_000)
              (int_range (-1_000_000_000) 1_000_000_000))
    (fun (a, b) ->
      let ba = bi a and bb = bi b in
      let ok_add = bi_str (Bigint.add ba bb) = string_of_int (a + b) in
      let ok_sub = bi_str (Bigint.sub ba bb) = string_of_int (a - b) in
      let ok_mul = bi_str (Bigint.mul ba bb) = string_of_int (a * b) in
      let ok_div =
        b = 0
        || (let q, r = Bigint.divmod ba bb in
            bi_str q = string_of_int (a / b) && bi_str r = string_of_int (a mod b))
      in
      let rec igcd a b = if b = 0 then abs a else igcd b (a mod b) in
      let ok_gcd = bi_str (Bigint.gcd ba bb) = string_of_int (igcd a b) in
      let ok_cmp = Stdlib.compare (Bigint.compare ba bb) 0 = Stdlib.compare (compare a b) 0 in
      ok_add && ok_sub && ok_mul && ok_div && ok_gcd && ok_cmp)

let prop_bigint_isqrt =
  QCheck.Test.make ~name:"Bigint.isqrt is the floor square root" ~count:1000
    QCheck.(int_range 0 1_000_000_000)
    (fun n ->
      let r = Bigint.isqrt (bi n) in
      let r2 = Bigint.mul r r in
      let r12 = Bigint.mul (Bigint.add r Bigint.one) (Bigint.add r Bigint.one) in
      Bigint.compare r2 (bi n) <= 0 && Bigint.compare (bi n) r12 < 0)

let prop_bigint_shifts =
  QCheck.Test.make ~name:"shift_left/right invert over magnitudes" ~count:500
    QCheck.(pair (int_range 0 1_000_000_000) (int_range 0 120))
    (fun (n, k) ->
      let x = bi n in
      Bigint.equal (Bigint.shift_right (Bigint.shift_left x k) k) x)

(* ------------------------------------------------------------------- Rat *)

let finite_float =
  QCheck.(
    map
      (fun (m, e) -> Float.ldexp m e)
      (pair (float_range (-1.) 1.) (int_range (-60) 60)))

let prop_rat_of_float_exact =
  QCheck.Test.make ~name:"Rat.of_float / to_float round-trips exactly"
    ~count:2000 finite_float
    (fun x -> Rat.to_float (Rat.of_float x) = x)

let prop_rat_field_ops =
  QCheck.Test.make ~name:"Rat field ops agree with exact integer cross-check"
    ~count:1000
    QCheck.(
      quad (int_range (-10_000) 10_000) (int_range 1 10_000)
        (int_range (-10_000) 10_000) (int_range 1 10_000))
    (fun (a, b, c, d) ->
      let x = Rat.of_ints a b and y = Rat.of_ints c d in
      (* a/b + c/d = (ad + cb)/(bd), etc. — all in exact integers. *)
      let eq r n dd = Rat.equal r (Rat.of_ints n dd) in
      eq (Rat.add x y) ((a * d) + (c * b)) (b * d)
      && eq (Rat.sub x y) ((a * d) - (c * b)) (b * d)
      && eq (Rat.mul x y) (a * c) (b * d)
      && (c = 0 || eq (Rat.div x y) (a * d) (b * c))
      && Stdlib.compare (Rat.compare x y) 0
         = Stdlib.compare (compare (a * d) (c * b)) 0)

let test_rat_floor_ceil () =
  let check name v fl ce =
    Alcotest.(check int) (name ^ " floor") fl (Rat.floor_int v);
    Alcotest.(check int) (name ^ " ceil") ce (Rat.ceil_int v)
  in
  check "7/2" (Rat.of_ints 7 2) 3 4;
  check "-7/2" (Rat.of_ints (-7) 2) (-4) (-3);
  check "4" (Rat.of_int 4) 4 4;
  check "-4" (Rat.of_int (-4)) (-4) (-4);
  check "1/3" (Rat.of_ints 1 3) 0 1;
  check "-1/3" (Rat.of_ints (-1) 3) (-1) 0

let test_rat_of_float_denormal () =
  (* Exact image of the smallest positive denormal: 2^-1074. *)
  let tiny = Float.ldexp 1. (-1074) in
  let r = Rat.of_float tiny in
  Alcotest.(check bool) "positive" true (Rat.sign r = 1);
  Alcotest.(check bool) "round-trips" true (Rat.to_float r = tiny);
  Alcotest.check_raises "rejects nan" (Invalid_argument "Rat.of_float: not a finite float")
    (fun () -> ignore (Rat.of_float Float.nan))

let prop_rat_tolerant_mirror =
  (* The exact tolerant comparators must agree with Fcmp whenever the float
     evaluation of the predicate is itself exact — e.g. on small integers,
     where |a-b|, max and the eps product round to nothing. *)
  QCheck.Test.make ~name:"Rat.leq/lt mirror Fcmp on exactly-representable inputs"
    ~count:1000
    QCheck.(pair (int_range (-1000) 1000) (int_range (-1000) 1000))
    (fun (a, b) ->
      let fa = float_of_int a and fb = float_of_int b in
      let ra = Rat.of_int a and rb = Rat.of_int b in
      let eps = Exact_speedup.default_eps in
      Rat.leq ~eps ra rb = Fcmp.leq fa fb
      && Rat.lt ~eps ra rb = Fcmp.lt fa fb
      && Rat.geq ~eps ra rb = Fcmp.geq fa fb
      && Rat.approx ~eps ra rb = Fcmp.approx fa fb)

(* --------------------------------------------------------- Exact_speedup *)

let random_model rng =
  let w = Rng.log_uniform rng 0.1 1000. in
  match Rng.int rng 5 with
  | 0 -> Speedup.Roofline { w; ptilde = Rng.int_range rng 1 64 }
  | 1 -> Speedup.Communication { w; c = Rng.log_uniform rng 1e-3 10. }
  | 2 -> Speedup.Amdahl { w; d = Rng.log_uniform rng 1e-3 10. }
  | 3 ->
    Speedup.General
      {
        w;
        ptilde = Rng.int_range rng 1 64;
        d = Rng.log_uniform rng 1e-3 10.;
        c = (if Rng.bernoulli rng 0.5 then Rng.log_uniform rng 1e-3 10. else 0.);
      }
  | _ -> Speedup.Power { w; alpha = Rng.float_range rng 0.1 1. }

let prop_exact_time_matches_float =
  QCheck.Test.make
    ~name:"exact model times match float evaluation to ~1e-14 relative"
    ~count:1000
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let m = random_model rng in
      let p = Rng.int_range rng 1 64 in
      let ft = Speedup.time m p in
      let et = Rat.to_float (Exact_speedup.time m p) in
      Float.abs (ft -. et) <= 1e-13 *. Float.max 1. (Float.abs ft))

let prop_canonical_general_exact_equivalence =
  (* Satellite: Communication/Amdahl embed into General with
     ptilde = max_int.  The embedding must be exact — identical float
     values AND identical exact rationals at every allocation — i.e. the
     sentinel never leaks through a lossy int -> float conversion. *)
  QCheck.Test.make
    ~name:"canonical_general (ptilde=max_int) is exact at every allocation"
    ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let w = Rng.log_uniform rng 0.1 1000. in
      let m =
        if Rng.bernoulli rng 0.5 then
          Speedup.Communication { w; c = Rng.log_uniform rng 1e-3 10. }
        else Speedup.Amdahl { w; d = Rng.log_uniform rng 1e-3 10. }
      in
      let g =
        match Speedup.canonical_general m with
        | Some g -> g
        | None -> QCheck.Test.fail_report "closed form must canonicalize"
      in
      List.for_all
        (fun p ->
          Float.equal (Speedup.time m p) (Speedup.time g p)
          && Rat.equal (Exact_speedup.time m p) (Exact_speedup.time g p)
          && Rat.equal (Exact_speedup.area m p) (Exact_speedup.area g p))
        [ 1; 2; 3; 7; 64; 1023; 4096; 65536 ])

let test_canonical_general_huge_ptilde () =
  (* ptilde = max_int consumed through min/int paths only: p_max and the
     allocator must behave as "unbounded", with no overflow or precision
     loss, even at very large platform sizes. *)
  let m = Speedup.General { w = 100.; ptilde = max_int; d = 1e-3; c = 0. } in
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "exact p_max unbounded at P=%d" p)
        p
        (Exact_speedup.p_max ~p m);
      let a = Task.analyze ~p (Task.make ~id:0 m) in
      Alcotest.(check int)
        (Printf.sprintf "float p_max unbounded at P=%d" p)
        p a.Task.p_max)
    [ 1; 7; 1024; 1 lsl 20 ]

let prop_exact_pbar_matches_float =
  QCheck.Test.make
    ~name:"exact pbar agrees with Task.closed_form_p_max (or sits on a tie)"
    ~count:1000
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let w = Rng.log_uniform rng 1e-3 1e6 in
      let c = Rng.log_uniform rng 1e-6 1e3 in
      let m = Speedup.Communication { w; c } in
      let p = Rng.int_range rng 1 512 in
      let fp = (Task.analyze ~p (Task.make ~id:0 m)).Task.p_max in
      let ep = Exact_speedup.p_max ~p m in
      fp = ep
      || (abs (fp - ep) = 1
          && Fcmp.approx ~eps:1e-8 (Speedup.time m fp) (Speedup.time m ep)))

(* ------------------------------------------------------------ Exact_alg2 *)

let mus =
  [
    Mu.default Speedup.Kind_roofline;
    Mu.default Speedup.Kind_communication;
    Mu.default Speedup.Kind_amdahl;
    Mu.default Speedup.Kind_general;
  ]

let prop_decisions_match_float_allocator =
  QCheck.Test.make
    ~name:"exact Algorithm 2 reproduces the float allocator's decisions"
    ~count:1500
    QCheck.(int_range 0 10_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let m = random_model rng in
      let task = Task.make ~id:0 m in
      let p = Rng.int_range rng 1 512 in
      let mu = List.nth mus (Rng.int rng 4) in
      let fd = Allocator.explain (Allocator.algorithm2 ~mu) (Task.analyze ~p task) in
      let mu_r = Rat.of_float mu in
      let ea = Exact_alg2.analyze ~p task in
      let ed = Exact_alg2.decide ~mu:mu_r ea in
      if ed.Exact_alg2.final_alloc = fd.Task.final_alloc then true
      else begin
        (* Boundary envelope: perturb eps by the rounding band and accept
           the float answer if it falls inside. *)
        let band = Rat.of_float 1e-13 in
        let eps_lo = Rat.sub Exact_speedup.default_eps band in
        let eps_hi = Rat.add Exact_speedup.default_eps band in
        let d_lo =
          Exact_alg2.decide ~eps:eps_lo ~mu:mu_r (Exact_alg2.analyze ~eps:eps_lo ~p task)
        in
        let d_hi =
          Exact_alg2.decide ~eps:eps_hi ~mu:mu_r (Exact_alg2.analyze ~eps:eps_hi ~p task)
        in
        let lo = min d_lo.Exact_alg2.final_alloc d_hi.Exact_alg2.final_alloc in
        let hi = max d_lo.Exact_alg2.final_alloc d_hi.Exact_alg2.final_alloc in
        if fd.Task.final_alloc >= lo && fd.Task.final_alloc <= hi then
          true
        else
          QCheck.Test.fail_report
            (Printf.sprintf
               "seed %d: float alloc %d vs exact %d (envelope [%d,%d]) for %s \
                at P=%d mu=%.6f"
               seed fd.Task.final_alloc ed.Exact_alg2.final_alloc lo hi
               (Speedup.to_string m) p mu)
      end)

let prop_cap_matches_exact_spec =
  QCheck.Test.make ~name:"Mu.cap equals the exact tolerant cap spec" ~count:1
    QCheck.unit
    (fun () ->
      List.for_all
        (fun mu ->
          let mu_r = Rat.of_float mu in
          let ok = ref true in
          for p = 1 to 4096 do
            if Mu.cap ~mu ~p <> Exact_alg2.cap ~mu:mu_r p then begin
              Printf.printf "cap mismatch at mu=%.6f p=%d: float %d exact %d\n"
                mu p (Mu.cap ~mu ~p) (Exact_alg2.cap ~mu:mu_r p);
              ok := false
            end
          done;
          !ok)
        mus)

let test_cap_paper_vs_shaved () =
  (* The shave only matters when mu*P is an exact integer in floats;
     otherwise both caps agree.  mu = 0.25 at P = 8: exact product 2. *)
  let mu = Rat.of_ints 1 4 in
  Alcotest.(check int) "exact multiple" 2 (Exact_alg2.cap_paper ~mu 8);
  Alcotest.(check int) "shaved agrees on exact multiple" 2
    (Exact_alg2.cap ~mu 8);
  Alcotest.(check int) "fractional product ceils up" 3
    (Exact_alg2.cap_paper ~mu 9)

let random_dag rng =
  let kind =
    match Rng.int rng 5 with
    | 0 -> Speedup.Kind_roofline
    | 1 -> Speedup.Kind_communication
    | 2 -> Speedup.Kind_amdahl
    | 3 -> Speedup.Kind_general
    | _ -> Speedup.Kind_power
  in
  ( kind,
    match Rng.int rng 3 with
    | 0 ->
      Moldable_workloads.Random_dag.layered ~rng
        ~n_layers:(Rng.int_range rng 2 6)
        ~width:(Rng.int_range rng 1 8)
        ~edge_prob:(Rng.float_range rng 0.05 0.6)
        ~kind ()
    | 1 ->
      Moldable_workloads.Random_dag.independent ~rng
        ~n:(Rng.int_range rng 1 30)
        ~kind ()
    | _ ->
      Moldable_workloads.Random_dag.erdos_renyi ~rng
        ~n:(Rng.int_range rng 2 25)
        ~edge_prob:(Rng.float_range rng 0.05 0.4)
        ~kind () )

let prop_exact_lower_bound_matches_float =
  QCheck.Test.make
    ~name:"exact Lemma 2 bound matches Bounds.compute within rounding"
    ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let _, dag = random_dag rng in
      let p = Rng.int_range rng 1 64 in
      let fb = Bounds.compute ~p dag in
      let eb = Exact_alg2.lower_bound ~p dag in
      let el = Rat.to_float eb.Exact_alg2.lower_bound in
      let n = Dag.n dag in
      let allow = 1e-12 +. (4e-16 *. float_of_int n) in
      Float.abs (fb.Bounds.lower_bound -. el)
      <= allow *. Float.max 1. (Float.abs el))

(* ----------------------------------------------------------------- Shadow *)

let prop_shadow_clean_on_random_runs =
  QCheck.Test.make
    ~name:"shadow replay of random online runs finds no unexplained divergence"
    ~count:150
    QCheck.(int_range 0 10_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let kind, dag = random_dag rng in
      let p = Rng.int_range rng 2 64 in
      let mu = Mu.default kind in
      let result =
        Online_scheduler.run
          ~allocator:(Allocator.algorithm2 ~mu) ~p dag
      in
      let report = Shadow.check ~mu ~dag ~p result in
      if Shadow.ok report && report.Shadow.checks > 0 then true
      else
        QCheck.Test.fail_report
          (Format.asprintf "seed %d (P=%d):@.%a" seed p Shadow.pp report))

let prop_shadow_clean_with_failures =
  QCheck.Test.make
    ~name:"shadow replay stays clean under failure injection and releases"
    ~count:80
    QCheck.(int_range 0 10_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let kind, dag = random_dag rng in
      let p = Rng.int_range rng 2 64 in
      let mu = Mu.default kind in
      let n = Dag.n dag in
      let release_times =
        Array.init n (fun _ -> Rng.float_range rng 0. 5.)
      in
      let result =
        Online_scheduler.run
          ~allocator:(Allocator.algorithm2 ~mu) ~release_times ~seed
          ~failures:(Moldable_sim.Sim_core.bernoulli ~q:0.2)
          ~max_attempts:64 ~p dag
      in
      let report = Shadow.check ~mu ~dag ~p result in
      if Shadow.ok report then true
      else
        QCheck.Test.fail_report
          (Format.asprintf "seed %d (P=%d):@.%a" seed p Shadow.pp report))

(* [r] with its metrics rebuilt from edited event instants and failed
   processor blocks (the record is private to its constructor).  [blocks]
   edits the block array and the (offset, pair count) of every failed
   attempt together. *)
let with_recording ?(times = Fun.id) ?(blocks = Fun.id)
    (r : Moldable_sim.Sim_core.result) =
  let module M = Moldable_sim.Metrics in
  let m = r.Moldable_sim.Sim_core.metrics in
  let blocks, failed = blocks (m.M.blocks, m.M.failed) in
  let metrics =
    M.make ~schedule:m.M.schedule ~counters:m.M.counters
      ~times:(times m.M.times) ~codes:m.M.codes ~args:m.M.args ~blocks
      ~failed ~depth_times:m.M.depth_times ~depths:m.M.depths
  in
  { r with Moldable_sim.Sim_core.metrics }

let test_shadow_flags_corrupt_stamp () =
  (* The oracle must actually fire: corrupt one finish stamp well past every
     tolerance and check the replay reports an unexplained divergence. *)
  let task = Task.make ~id:0 (Speedup.Amdahl { w = 10.; d = 1. }) in
  let dag = Dag.create ~tasks:[ task ] ~edges:[] in
  let p = 4 in
  let mu = Mu.default Speedup.Kind_amdahl in
  let result =
    Online_scheduler.run ~allocator:(Allocator.algorithm2 ~mu) ~p
      dag
  in
  (* The last event is the task's [Finish]: its instant is the attempt's
     finish. *)
  let corrupt =
    with_recording result
      ~times:(fun ts ->
        let ts = Array.copy ts in
        let k = Array.length ts - 1 in
        ts.(k) <- ts.(k) *. 1.5;
        ts)
  in
  let report = Shadow.check ~mu ~dag ~p corrupt in
  Alcotest.(check bool) "clean run passes" true
    (Shadow.ok (Shadow.check ~mu ~dag ~p result));
  Alcotest.(check bool) "corrupted stamp is flagged" false (Shadow.ok report)

let test_shadow_report_json () =
  let module Json = Moldable_obs.Json in
  let task = Task.make ~id:0 (Speedup.Roofline { w = 4.; ptilde = 2 }) in
  let dag = Dag.create ~tasks:[ task ] ~edges:[] in
  let mu = Mu.default Speedup.Kind_roofline in
  (* One failed attempt, so the recording holds a processor block of its
     own to corrupt. *)
  let result =
    Online_scheduler.run ~allocator:(Allocator.algorithm2 ~mu)
      ~failures:(Moldable_sim.Sim_core.at_most ~k:1) ~p:4 dag
  in
  let report = Shadow.check ~mu ~dag ~p:4 result in
  let json = Json.to_string_compact (Shadow.report_to_json report) in
  Alcotest.(check bool) "json has checks field" true
    (String.length json > 0
    && String.sub json 0 10 = "{\"checks\":");
  Alcotest.(check bool) "no divergences on trivial run" true (Shadow.ok report);
  (* A corrupted processor set is flagged with an infinite relative excess;
     the report must still be strict JSON, with that excess as null.  Every
     failed attempt gets the block of processors 1, 3 and 5: three of them
     on a 4-processor platform, one out of range. *)
  let corrupt =
    with_recording result
      ~blocks:(fun (_, failed) ->
        ([| 0; 0b101010 |], Array.mapi (fun j _ -> j land 1) failed))
  in
  let report = Shadow.check ~mu ~dag ~p:4 corrupt in
  Alcotest.(check bool) "corrupted processor set is flagged" false
    (Shadow.ok report);
  List.iter
    (fun render ->
      match Json.of_string (render (Shadow.report_to_json report)) with
      | Error e -> Alcotest.fail ("report does not parse: " ^ e)
      | Ok j ->
        let proc_set =
          List.filter
            (fun d ->
              match Option.bind (Json.member "site" d) Json.to_str with
              | Some site -> String.starts_with ~prefix:"proc_set" site
              | None -> false)
            (Option.value ~default:[]
               (Option.bind (Json.member "divergences" j) Json.to_list))
        in
        Alcotest.(check bool) "proc_set divergence reported" true
          (proc_set <> []);
        List.iter
          (fun d ->
            Alcotest.(check bool) "infinite rel_excess renders null" true
              (Json.member "rel_excess" d = Some Json.Null))
          proc_set)
    [ Json.to_string; Json.to_string_compact ]

(* ------------------------------------- adversarial instance floor audit *)

(* The float expressions used by Instances.communication / amdahl_like to
   size the generic graph (X and Y counts), audited against exact rational
   evaluation over the full platform range the constructions accept.  A
   disagreement would mean the constructed instance deviates from the
   proof's parameters at that P — the Mu.cap bug class. *)
let test_instances_floor_audit_communication () =
  let mu = Mu.default Speedup.Kind_communication in
  let mu_r = Rat.of_float mu in
  let flagged = ref [] in
  for p = 8 to 4096 do
    let float_x =
      int_of_float (floor ((1. -. mu) *. float_of_int p /. 2.)) + 1
    in
    let exact_x =
      Rat.floor_int
        (Rat.div
           (Rat.mul (Rat.sub Rat.one mu_r) (Rat.of_int p))
           (Rat.of_int 2))
      + 1
    in
    if float_x <> exact_x then flagged := p :: !flagged
  done;
  (* The float path computes fl(fl(1-mu)*p/2) while the exact side evaluates
     (1 - R(mu))*p/2: the subtraction 1 -. mu itself rounds, so audit the
     float pipeline's own spec too — the image of the rounded difference. *)
  let one_minus_mu = Rat.of_float (1. -. mu) in
  let flagged_spec = ref [] in
  for p = 8 to 4096 do
    let float_x =
      int_of_float (floor ((1. -. mu) *. float_of_int p /. 2.)) + 1
    in
    let exact_x =
      Rat.floor_int (Rat.div (Rat.mul one_minus_mu (Rat.of_int p)) (Rat.of_int 2))
      + 1
    in
    if float_x <> exact_x then flagged_spec := p :: !flagged_spec
  done;
  Alcotest.(check (list int))
    "X(P) float floor matches the exact image spec on 8..4096" [] !flagged_spec;
  (* Against the unrounded (1 - mu) the difference can only come from the
     one rounding of the subtraction; record that the audit found none
     either (pinning the current status — a regression here means the
     expression needs a guarded floor). *)
  Alcotest.(check (list int))
    "X(P) float floor matches exact (1-mu) on 8..4096" [] !flagged

let test_instances_floor_audit_amdahl () =
  (* X and Y of the Theorem 7/8 construction, swept over k. *)
  List.iter
    (fun (mu, make_b) ->
      let delta = Mu.delta mu in
      let delta_r = Rat.of_float delta in
      for k = 4 to 128 do
        let p = k * k in
        let fk = float_of_int k in
        let task_b = Task.make ~id:0 (make_b fk) in
        let p_b = Allocator.allocate (Allocator.algorithm2 ~mu) ~p task_b in
        let float_x =
          int_of_float (floor (fk *. fk *. (1. -. mu) /. float_of_int p_b)) + 1
        in
        let exact_x =
          Rat.floor_int
            (Rat.div
               (Rat.mul
                  (Rat.mul (Rat.of_int k) (Rat.of_int k))
                  (Rat.of_float (1. -. mu)))
               (Rat.of_int p_b))
          + 1
        in
        Alcotest.(check int)
          (Printf.sprintf "X at k=%d mu=%.4f" k mu)
          exact_x float_x;
        let float_y =
          int_of_float (floor (fk *. (fk -. delta) /. float_of_int float_x))
        in
        let exact_y =
          Rat.floor_int
            (Rat.div
               (Rat.mul (Rat.of_int k)
                  (Rat.sub (Rat.of_int k) delta_r))
               (Rat.of_int exact_x))
        in
        Alcotest.(check int)
          (Printf.sprintf "Y at k=%d mu=%.4f" k mu)
          exact_y float_y
      done)
    [
      (Mu.default Speedup.Kind_amdahl, fun fk -> Speedup.Amdahl { w = fk; d = 1. });
      ( Mu.default Speedup.Kind_general,
        fun fk -> Speedup.General { w = fk; ptilde = max_int / 2; d = 1.; c = 0. } );
    ]

(* ---------------------------------------------------------------- runner *)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "exact"
    [
      ( "bigint",
        [
          Alcotest.test_case "basics" `Quick test_bigint_basics;
          Alcotest.test_case "big products" `Quick test_bigint_big_products;
          qt prop_bigint_matches_int_arith;
          qt prop_bigint_isqrt;
          qt prop_bigint_shifts;
        ] );
      ( "rat",
        [
          Alcotest.test_case "floor/ceil" `Quick test_rat_floor_ceil;
          Alcotest.test_case "denormal image" `Quick test_rat_of_float_denormal;
          qt prop_rat_of_float_exact;
          qt prop_rat_field_ops;
          qt prop_rat_tolerant_mirror;
        ] );
      ( "exact speedup",
        [
          Alcotest.test_case "huge ptilde" `Quick
            test_canonical_general_huge_ptilde;
          qt prop_exact_time_matches_float;
          qt prop_canonical_general_exact_equivalence;
          qt prop_exact_pbar_matches_float;
        ] );
      ( "exact algorithm 2",
        [
          Alcotest.test_case "cap paper vs shaved" `Quick
            test_cap_paper_vs_shaved;
          qt prop_decisions_match_float_allocator;
          qt prop_cap_matches_exact_spec;
          qt prop_exact_lower_bound_matches_float;
        ] );
      ( "shadow",
        [
          Alcotest.test_case "flags corrupt stamp" `Quick
            test_shadow_flags_corrupt_stamp;
          Alcotest.test_case "report json" `Quick test_shadow_report_json;
          qt prop_shadow_clean_on_random_runs;
          qt prop_shadow_clean_with_failures;
        ] );
      ( "instance floor audit",
        [
          Alcotest.test_case "communication X(P)" `Quick
            test_instances_floor_audit_communication;
          Alcotest.test_case "amdahl/general X,Y(k)" `Quick
            test_instances_floor_audit_amdahl;
        ] );
    ]
