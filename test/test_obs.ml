(* Tests for the Moldable_obs telemetry stack: log-linear histogram
   correctness against a sorted-sample oracle (quantile within one bucket,
   merge associativity), counter monotonicity, the null-registry
   schedule-equivalence contract (mirroring Tracer.null), cross-domain
   sharding, JSON parse/print round trips, snapshot (de)serialization,
   OpenMetrics exposition grammar and GC sampling. *)

open Moldable_model
open Moldable_sim
open Moldable_util
open Moldable_core
module R = Moldable_obs.Registry
module Hist = Moldable_obs.Registry.Hist
module Json = Moldable_obs.Json

(* ----------------------------------------------- histogram vs sorted oracle *)

(* Positive samples spanning several binades: map ints into (0, ~1000]. *)
let samples_gen =
  QCheck.(
    map
      (fun xs -> List.map (fun i -> float_of_int i /. 997.3) xs)
      (list_of_size Gen.(int_range 1 150) (int_range 1 1_000_000)))

let buckets_of xs =
  let buckets = Array.make Hist.nbuckets 0 in
  List.iter
    (fun x ->
      let i = Hist.index x in
      buckets.(i) <- buckets.(i) + 1)
    xs;
  buckets

(* The registry's own definition: nearest rank, rank = clamp(ceil(q n) - 1). *)
let exact_quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let rank =
    max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1))
  in
  a.(rank)

let prop_quantile_within_one_bucket =
  QCheck.Test.make
    ~name:"histogram quantile lands within one bucket of the sorted oracle"
    ~count:200 samples_gen (fun xs ->
      let buckets = buckets_of xs in
      let min_seen = List.fold_left Float.min Float.infinity xs in
      let max_seen = List.fold_left Float.max Float.neg_infinity xs in
      List.for_all
        (fun q ->
          let est = Hist.quantile ~min_seen ~max_seen buckets q in
          let exact = exact_quantile xs q in
          abs (Hist.index est - Hist.index exact) <= 1)
        [ 0.; 0.5; 0.9; 0.99; 1. ])

let prop_merge_associative_commutative =
  QCheck.Test.make
    ~name:"histogram merge is associative, commutative, zero-identity"
    ~count:100
    QCheck.(triple samples_gen samples_gen samples_gen)
    (fun (xs, ys, zs) ->
      let a = buckets_of xs and b = buckets_of ys and c = buckets_of zs in
      let zero = Array.make Hist.nbuckets 0 in
      Hist.merge a (Hist.merge b c) = Hist.merge (Hist.merge a b) c
      && Hist.merge a b = Hist.merge b a
      && Hist.merge a zero = a)

let prop_merged_quantile_matches_concat =
  QCheck.Test.make
    ~name:"quantile of merged buckets tracks the concatenated sample oracle"
    ~count:100
    QCheck.(pair samples_gen samples_gen)
    (fun (xs, ys) ->
      let all = xs @ ys in
      let merged = Hist.merge (buckets_of xs) (buckets_of ys) in
      let min_seen = List.fold_left Float.min Float.infinity all in
      let max_seen = List.fold_left Float.max Float.neg_infinity all in
      List.for_all
        (fun q ->
          let est = Hist.quantile ~min_seen ~max_seen merged q in
          abs (Hist.index est - Hist.index (exact_quantile all q)) <= 1)
        [ 0.5; 0.9; 0.99 ])

let test_hist_geometry () =
  (* Every sample indexes into a bucket whose [lo, hi) bounds contain it. *)
  List.iter
    (fun x ->
      let i = Hist.index x in
      Alcotest.(check bool)
        (Printf.sprintf "bounds contain %g" x)
        true
        (Hist.lower_bound i <= x && x < Hist.upper_bound i))
    [ 1e-9; 0.001; 0.5; 1.0; 1.5; 2.0; 3.75; 1024.; 9.9e11 ];
  (* Underflow and overflow are total. *)
  Alcotest.(check int) "zero underflows" 0 (Hist.index 0.);
  Alcotest.(check int) "negative underflows" 0 (Hist.index (-5.));
  Alcotest.(check int) "inf overflows" (Hist.nbuckets - 1)
    (Hist.index Float.infinity);
  (* Relative bucket width of regular buckets is at most 1/sub = 12.5%. *)
  let i = Hist.index 1.0 in
  let lo = Hist.lower_bound i and hi = Hist.upper_bound i in
  Alcotest.(check bool) "12.5% relative width" true
    ((hi -. lo) /. lo <= (1. /. float_of_int Hist.sub) +. 1e-12)

let test_quantile_edge_cases () =
  let empty = Array.make Hist.nbuckets 0 in
  Alcotest.(check bool) "empty -> NaN" true
    (Float.is_nan (Hist.quantile empty 0.5));
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Registry.Hist.quantile: q outside [0, 1]")
    (fun () -> ignore (Hist.quantile empty 1.5))

(* ------------------------------------------------------ counter monotonicity *)

let counter_value r name =
  match
    List.find_opt (fun ms -> ms.R.ms_name = name) (R.snapshot r)
  with
  | Some { R.ms_value = R.Counter_v v; _ } -> Some v
  | _ -> None

let prop_counter_monotone =
  QCheck.Test.make
    ~name:"counter snapshots are monotone and sum the increments" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 30) (int_range 0 1000))
    (fun incs ->
      let r = R.create () in
      let c = R.counter r ~name:"m" ~help:"h" in
      let prev = ref 0. and ok = ref true and total = ref 0. in
      List.iter
        (fun i ->
          let v = float_of_int i in
          R.incr_by c v;
          total := !total +. v;
          match counter_value r "m" with
          | Some now ->
            if now < !prev then ok := false;
            prev := now
          | None -> ok := false)
        incs;
      !ok && (incs = [] || Float.equal !prev !total))

let test_counter_rejects_negative () =
  let r = R.create () in
  let c = R.counter r ~name:"m" ~help:"h" in
  Alcotest.check_raises "negative increment"
    (Invalid_argument "Registry.incr_by: counters only go up") (fun () ->
      R.incr_by c (-1.))

let test_register_kind_conflict () =
  let r = R.create () in
  ignore (R.counter r ~name:"m" ~help:"h");
  (* Re-registration with the same kind is idempotent... *)
  let c = R.counter r ~name:"m" ~help:"h" in
  R.incr c;
  (* ...and a different kind under the same name is an error. *)
  (try
     ignore (R.gauge r ~name:"m" ~help:"h");
     Alcotest.fail "kind conflict accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (R.counter r ~name:"bad name" ~help:"h");
     Alcotest.fail "malformed name accepted"
   with Invalid_argument _ -> ())

(* ------------------------------------------ null registry is observation-only *)

let random_dag rng =
  let kind =
    Rng.choose rng
      [| Speedup.Kind_roofline; Speedup.Kind_communication;
         Speedup.Kind_amdahl; Speedup.Kind_general |]
  in
  Moldable_workloads.Random_dag.layered ~rng ~n_layers:4 ~width:5
    ~edge_prob:0.3 ~kind ()

let failure_model rng = function
  | 0 -> Sim_core.never
  | 1 -> Sim_core.bernoulli ~q:(Rng.float rng 0.5)
  | _ -> Sim_core.at_most ~k:(Rng.int_range rng 0 2)

let same_schedule a b =
  Schedule.n a = Schedule.n b
  && List.for_all
       (fun i ->
         let pa = Schedule.placement a i and pb = Schedule.placement b i in
         Float.equal pa.Schedule.start pb.Schedule.start
         && Float.equal pa.Schedule.finish pb.Schedule.finish
         && pa.Schedule.nprocs = pb.Schedule.nprocs
         && pa.Schedule.procs = pb.Schedule.procs)
       (List.init (Schedule.n a) (fun i -> i))

let prop_null_registry_equivalent =
  QCheck.Test.make
    ~name:
      "default, explicit-null and live registry runs are schedule-identical \
       (+/- failures)"
    ~count:60
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 2))
    (fun (seed, model_idx) ->
      let rng = Rng.create seed in
      let dag = random_dag rng in
      let p = Rng.int_range rng 2 32 in
      let failures = failure_model rng model_idx in
      let run ?registry () =
        Online_scheduler.run ~seed ~failures ?registry ~p dag
      in
      let default = run () in
      let null = run ~registry:R.null () in
      let live = run ~registry:(R.create ()) () in
      same_schedule default.Sim_core.schedule null.Sim_core.schedule
      && same_schedule default.Sim_core.schedule live.Sim_core.schedule
      && Float.equal default.Sim_core.makespan null.Sim_core.makespan
      && Float.equal default.Sim_core.makespan live.Sim_core.makespan
      && default.Sim_core.attempts = null.Sim_core.attempts
      && default.Sim_core.attempts = live.Sim_core.attempts)

let test_null_registry_records_nothing () =
  Alcotest.(check bool) "disabled" false (R.enabled R.null);
  let c = R.counter R.null ~name:"c" ~help:"h" in
  let g = R.gauge R.null ~name:"g" ~help:"h" in
  let h = R.histogram R.null ~name:"h" ~help:"h" in
  R.incr c;
  R.incr_by c 5.;
  (* The null fast path must not even validate: it is a single branch. *)
  R.incr_by c (-1.);
  R.set g 3.;
  R.add g 1.;
  R.observe h 0.25;
  Alcotest.(check int) "empty snapshot" 0 (List.length (R.snapshot R.null))

let test_sim_counters_published () =
  let rng = Rng.create 7 in
  let dag = random_dag rng in
  let r = R.create () in
  let result = Online_scheduler.run ~registry:r ~p:16 dag in
  let v name =
    match counter_value r name with
    | Some v -> v
    | None -> Alcotest.fail (name ^ " missing")
  in
  Alcotest.(check (float 0.)) "launches = attempts"
    (float_of_int result.Sim_core.n_attempts)
    (v "moldable_sim_launches");
  Alcotest.(check (float 0.)) "one run" 1. (v "moldable_sim_runs");
  Alcotest.(check bool) "events counted" true (v "moldable_sim_events" > 0.)

(* --------------------------------------------------- cross-domain sharding *)

let test_histogram_cross_domain_merge () =
  let r = R.create () in
  let h = R.histogram r ~name:"lat" ~help:"h" in
  let per_domain = 500 and domains = 4 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              R.observe h (float_of_int (i + d) /. 100.)
            done))
  in
  List.iter Domain.join workers;
  match List.find_opt (fun ms -> ms.R.ms_name = "lat") (R.snapshot r) with
  | Some { R.ms_value = R.Hist_v hs; _ } ->
    Alcotest.(check int) "all samples merged" (per_domain * domains) hs.R.count;
    Alcotest.(check bool) "quantiles ordered" true
      (hs.R.p50 <= hs.R.p90 && hs.R.p90 <= hs.R.p99);
    Alcotest.(check bool) "min/max bracket quantiles" true
      (hs.R.hmin <= hs.R.p50 && hs.R.p99 <= hs.R.hmax)
  | _ -> Alcotest.fail "histogram lost"

let test_gauge_add_across_domains () =
  let r = R.create () in
  let g = R.gauge r ~name:"busy" ~help:"h" in
  R.set g 10.;
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            R.add g 1.;
            R.add g 1.;
            R.add g (-1.)))
  in
  List.iter Domain.join workers;
  match List.find_opt (fun ms -> ms.R.ms_name = "busy") (R.snapshot r) with
  | Some { R.ms_value = R.Gauge_v v; _ } ->
    (* last set (10) plus 4 domains' net +1 adds *)
    Alcotest.(check (float 0.)) "set + summed adds" 14. v
  | _ -> Alcotest.fail "gauge lost"

(* --------------------------------------------------------------- Json codec *)

let test_json_round_trip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a \"quoted\"\nline\twith \\ and é");
        ("n", Json.Num 3.141592653589793);
        ("i", Json.Num 42.);
        ("big", Json.Num 1e300);
        ("neg", Json.Num (-0.5));
        ("b", Json.Bool true);
        ("z", Json.Null);
        ("l", Json.List [ Json.Num 1.; Json.Str "x"; Json.Obj [] ]);
        ("empty", Json.List []);
      ]
  in
  (match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "pretty round trip" true (v = v')
  | Error e -> Alcotest.fail e);
  match Json.of_string (Json.to_string_compact v) with
  | Ok v' -> Alcotest.(check bool) "compact round trip" true (v = v')
  | Error e -> Alcotest.fail e

let test_json_parse_details () =
  (match Json.of_string {|{"a": [1, 2.5, -3e2], "b": "é\n"}|} with
  | Ok v ->
    Alcotest.(check (float 0.)) "int" 1.
      (match Json.member "a" v with
      | Some (Json.List (x :: _)) -> Json.to_float x |> Option.get
      | _ -> Float.nan);
    Alcotest.(check string) "unicode escape decodes to UTF-8" "\xc3\xa9\n"
      (match Json.member "b" v with
      | Some (Json.Str s) -> s
      | _ -> "?")
  | Error e -> Alcotest.fail e);
  (match Json.of_string "[1, 2" with
  | Ok _ -> Alcotest.fail "accepted truncated input"
  | Error _ -> ());
  (match Json.of_string "{\"a\" 1}" with
  | Ok _ -> Alcotest.fail "accepted missing colon"
  | Error _ -> ());
  (* RFC 8259 numbers only: float_of_string alone would take all of these. *)
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted number %S" s)
      | Error _ -> ())
    [ "+1"; "01"; "00"; ".5"; "1."; "-"; "1e"; "1e+"; "-01"; "0x10"; "1_000";
      "[1.]"; "{\"a\": 01}" ];
  List.iter
    (fun (s, x) ->
      match Json.of_string s with
      | Ok (Json.Num y) -> Alcotest.(check (float 0.)) s x y
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S is not a number" s)
      | Error e -> Alcotest.fail (Printf.sprintf "rejected %S: %s" s e))
    [ ("0", 0.); ("-0", -0.); ("1.5e-3", 1.5e-3); ("1E+2", 100.);
      ("-12.25", -12.25); ("10", 10.) ];
  (* Non-finite numbers serialize as null (JSON has no NaN). *)
  Alcotest.(check string) "nan -> null" "null"
    (Json.to_string_compact (Json.Num Float.nan))

let test_json_to_int_range () =
  let to_int x = Json.to_int (Json.Num x) in
  Alcotest.(check (option int)) "1e19 is out of range" None (to_int 1e19);
  Alcotest.(check (option int)) "-1e19 is out of range" None (to_int (-1e19));
  Alcotest.(check (option int)) "2^62 is out of range" None (to_int 0x1p62);
  Alcotest.(check (option int)) "1e300 is out of range" None (to_int 1e300);
  Alcotest.(check (option int)) "-2^62 is min_int" (Some min_int)
    (to_int (-0x1p62));
  Alcotest.(check (option int)) "42" (Some 42) (to_int 42.);
  Alcotest.(check (option int)) "fractional" None (to_int 0.5)

(* ------------------------------------------------------------ Json fuzzing *)

(* The parser reads untrusted network input in the service daemon, so it
   must never raise and must bound both document size and nesting. *)

let prop_json_parser_never_raises =
  QCheck.Test.make ~name:"of_string never raises on arbitrary bytes"
    ~count:2000
    QCheck.(string_gen QCheck.Gen.char)
    (fun s ->
      match Json.of_string s with Ok _ | Error _ -> true)

let json_gen =
  QCheck.Gen.(
    sized_size (int_bound 5)
    @@ fix (fun self n ->
           let scalar =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Num (float_of_int i /. 64.)) int;
                 map (fun s -> Json.Str s) (string_size (int_bound 12));
               ]
           in
           if n = 0 then scalar
           else
             frequency
               [
                 (2, scalar);
                 ( 1,
                   map
                     (fun l -> Json.List l)
                     (list_size (int_bound 4) (self (n - 1))) );
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (int_bound 4)
                        (pair (string_size (int_bound 8)) (self (n - 1)))) );
               ]))

let prop_json_print_parse_round_trip =
  QCheck.Test.make
    ~name:"parse (print v) = v for generated documents (both printers)"
    ~count:500
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v ->
      Json.of_string (Json.to_string_compact v) = Ok v
      && Json.of_string (Json.to_string v) = Ok v)

let test_json_depth_and_size_limits () =
  let deep d = String.make d '[' ^ String.make d ']' in
  (match Json.of_string (deep Json.default_max_depth) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("rejected depth at the default bound: " ^ e));
  (match Json.of_string (deep (Json.default_max_depth + 1)) with
  | Ok _ -> Alcotest.fail "accepted nesting past the default bound"
  | Error _ -> ());
  (* A pathological input far past the bound must fail cleanly, not blow
     the stack. *)
  (match Json.of_string (String.make 1_000_000 '[') with
  | Ok _ -> Alcotest.fail "accepted a million open brackets"
  | Error _ -> ());
  (match Json.of_string ~max_depth:2 "[[1]]" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Json.of_string ~max_depth:2 "[[[1]]]" with
  | Ok _ -> Alcotest.fail "accepted nesting past an explicit bound"
  | Error _ -> ());
  (match Json.of_string ~max_bytes:5 "[1,2]" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match Json.of_string ~max_bytes:4 "[1,2]" with
  | Ok _ -> Alcotest.fail "accepted input longer than max_bytes"
  | Error _ -> ()

let test_json_surrogates () =
  (match Json.of_string {|"\ud83d\ude00"|} with
  | Ok (Json.Str s) ->
    Alcotest.(check string) "paired surrogates combine" "\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "not a string"
  | Error e -> Alcotest.fail e);
  (match Json.of_string {|"\ud800"|} with
  | Ok _ -> Alcotest.fail "accepted an unpaired high surrogate"
  | Error _ -> ());
  (match Json.of_string {|"\udc00x"|} with
  | Ok _ -> Alcotest.fail "accepted a lone low surrogate"
  | Error _ -> ());
  match Json.of_string "\"raw \x01 control\"" with
  | Ok _ -> Alcotest.fail "accepted a raw control character in a string"
  | Error _ -> ()

let test_json_duplicate_keys () =
  match Json.of_string {|{"k": 1, "k": 2}|} with
  | Ok v -> (
    match Json.member "k" v with
    | Some (Json.Num f) ->
      Alcotest.(check (float 0.)) "member returns the first binding" 1. f
    | _ -> Alcotest.fail "missing k")
  | Error e -> Alcotest.fail e

(* ----------------------------------------------------- snapshot round trip *)

let populated_registry () =
  let r = R.create () in
  let c = R.counter r ~name:"reqs" ~help:"requests" in
  let g = R.gauge r ~name:"depth" ~help:"queue depth" in
  let h = R.histogram r ~name:"lat" ~help:"latency" in
  R.incr_by c 17.;
  R.set g 3.;
  R.add g 2.;
  List.iter (fun x -> R.observe h x) [ 0.001; 0.01; 0.01; 0.5; 2.5 ];
  r

let test_snapshot_json_round_trip () =
  let snap = R.snapshot (populated_registry ()) in
  match R.snapshot_of_json (R.snapshot_to_json snap) with
  | Error e -> Alcotest.fail e
  | Ok snap' ->
    Alcotest.(check int) "same metric count" (List.length snap)
      (List.length snap');
    List.iter2
      (fun a b ->
        Alcotest.(check string) "name" a.R.ms_name b.R.ms_name;
        Alcotest.(check string) "help" a.R.ms_help b.R.ms_help;
        match (a.R.ms_value, b.R.ms_value) with
        | R.Counter_v x, R.Counter_v y | R.Gauge_v x, R.Gauge_v y ->
          Alcotest.(check (float 0.)) "value" x y
        | R.Hist_v x, R.Hist_v y ->
          Alcotest.(check int) "count" x.R.count y.R.count;
          Alcotest.(check (float 0.)) "sum" x.R.sum y.R.sum;
          Alcotest.(check (float 0.)) "p50" x.R.p50 y.R.p50;
          Alcotest.(check (float 0.)) "p99" x.R.p99 y.R.p99;
          Alcotest.(check bool) "buckets" true (x.R.buckets = y.R.buckets)
        | _ -> Alcotest.fail "kind changed in round trip")
      snap snap'

let test_snapshot_rows () =
  let snap = R.snapshot (populated_registry ()) in
  let rows = R.to_rows snap in
  Alcotest.(check int) "one row per metric" (List.length snap)
    (List.length rows);
  List.iter
    (fun row ->
      Alcotest.(check int) "row width matches header"
        (List.length R.row_header) (List.length row))
    rows

(* ----------------------------------------------------- OpenMetrics grammar *)

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let test_openmetrics_grammar () =
  let text = Moldable_obs.Openmetrics.of_snapshot (R.snapshot (populated_registry ())) in
  Alcotest.(check bool) "ends with EOF" true
    (String.length text >= 6
    && String.sub text (String.length text - 6) 6 = "# EOF\n");
  Alcotest.(check bool) "counter suffixed _total" true
    (contains text "reqs_total 17");
  Alcotest.(check bool) "gauge value is set+add" true (contains text "depth 5");
  Alcotest.(check bool) "histogram has +Inf bucket" true
    (contains text {|lat_bucket{le="+Inf"} 5|});
  Alcotest.(check bool) "histogram count" true (contains text "lat_count 5");
  Alcotest.(check bool) "HELP lines present" true
    (contains text "# HELP reqs requests");
  Alcotest.(check bool) "TYPE lines present" true
    (contains text "# TYPE lat histogram");
  (* Cumulative bucket counts never decrease. *)
  let lines = String.split_on_char '\n' text in
  let bucket_counts =
    List.filter_map
      (fun l ->
        if String.length l > 11 && String.sub l 0 11 = "lat_bucket{" then
          String.rindex_opt l ' '
          |> Option.map (fun i ->
                 int_of_string
                   (String.sub l (i + 1) (String.length l - i - 1)))
        else None)
      lines
  in
  let rec nondecreasing = function
    | a :: (b :: _ as tl) -> a <= b && nondecreasing tl
    | _ -> true
  in
  Alcotest.(check bool) "cumulative buckets" true (nondecreasing bucket_counts);
  Alcotest.(check string) "empty snapshot is bare EOF" "# EOF\n"
    (Moldable_obs.Openmetrics.of_snapshot [])

(* ----------------------------------------------------------------- sampler *)

let test_gc_sample () =
  let before = Moldable_obs.Gc_sample.read () in
  let acc = ref [] in
  for i = 1 to 10_000 do
    acc := float_of_int i :: !acc
  done;
  ignore (List.length !acc);
  let after = Moldable_obs.Gc_sample.read () in
  let d = Moldable_obs.Gc_sample.diff ~before ~after in
  Alcotest.(check bool) "allocation observed" true
    (d.Moldable_obs.Gc_sample.minor_words > 0.);
  let r = R.create () in
  Moldable_obs.Gc_sample.observe r d;
  match
    List.find_opt
      (fun ms -> ms.R.ms_name = "moldable_gc_minor_words")
      (R.snapshot r)
  with
  | Some { R.ms_value = R.Gauge_v v; _ } ->
    Alcotest.(check (float 0.)) "gauge mirrors sample"
      d.Moldable_obs.Gc_sample.minor_words v
  | _ -> Alcotest.fail "gc gauge missing"

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          qt prop_quantile_within_one_bucket;
          qt prop_merge_associative_commutative;
          qt prop_merged_quantile_matches_concat;
          Alcotest.test_case "bucket geometry" `Quick test_hist_geometry;
          Alcotest.test_case "quantile edges" `Quick test_quantile_edge_cases;
        ] );
      ( "registry",
        [
          qt prop_counter_monotone;
          Alcotest.test_case "negative increment" `Quick
            test_counter_rejects_negative;
          Alcotest.test_case "kind conflicts" `Quick test_register_kind_conflict;
          Alcotest.test_case "cross-domain histogram" `Quick
            test_histogram_cross_domain_merge;
          Alcotest.test_case "cross-domain gauge" `Quick
            test_gauge_add_across_domains;
        ] );
      ( "null contract",
        [
          qt prop_null_registry_equivalent;
          Alcotest.test_case "null records nothing" `Quick
            test_null_registry_records_nothing;
          Alcotest.test_case "sim counters" `Quick test_sim_counters_published;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "parse details" `Quick test_json_parse_details;
          Alcotest.test_case "to_int range" `Quick test_json_to_int_range;
        ] );
      ( "json fuzz",
        [
          qt prop_json_parser_never_raises;
          qt prop_json_print_parse_round_trip;
          Alcotest.test_case "depth and size limits" `Quick
            test_json_depth_and_size_limits;
          Alcotest.test_case "surrogates" `Quick test_json_surrogates;
          Alcotest.test_case "duplicate keys" `Quick test_json_duplicate_keys;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "json round trip" `Quick
            test_snapshot_json_round_trip;
          Alcotest.test_case "table rows" `Quick test_snapshot_rows;
        ] );
      ( "openmetrics",
        [ Alcotest.test_case "grammar" `Quick test_openmetrics_grammar ] );
      ( "gc sample",
        [ Alcotest.test_case "delta and gauges" `Quick test_gc_sample ] );
    ]
