(* Process-wide telemetry registry.

   Design notes
   ------------
   Recording must be cheap enough to sit on the simulator hot path and safe
   under `Moldable_util.Pool` workers, so every metric is sharded per domain:
   a shard is only ever written by the domain that owns it, and shards are
   merged under the metric mutex at snapshot time.  The shard table is an
   array indexed by the domain id; it is grown (copy + publish) under the
   mutex, and the owning domain's fast path reads it without the lock.  This
   is sound under the OCaml memory model: a domain always sees its own
   publish of the table, and any concurrent replacement was copied from a
   table that already contained this domain's shard (the copy happens under
   the same mutex that ordered the install), so every table the owner can
   observe has its shard in place.

   The null registry mirrors the `Tracer.null` contract: handles created
   against it carry no metric, so each record operation is a single match
   on an immediate constructor. *)

type kind = Counter | Gauge | Histogram

let kind_to_string = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

(* ------------------------------------------------- log-linear histogram *)

module Hist = struct
  (* HdrHistogram-style log-linear buckets: each power-of-two binade
     [2^(e-1), 2^e) is split into [sub] equal-width sub-buckets, so the
     relative width of any regular bucket is at most 1/sub = 12.5%.  Bucket
     0 is the underflow bucket (everything below [min_regular], including
     zero and negatives); the last bucket is the overflow bucket. *)

  let sub = 8
  let e_min = -34 (* smallest binade: [2^-35, 2^-34) ~ [2.9e-11, ...) *)
  let e_max = 40 (* regular range ends at 2^40 ~ 1.1e12 *)
  let nbuckets = ((e_max - e_min + 1) * sub) + 2
  let min_regular = Float.ldexp 1. (e_min - 1)
  let max_regular = Float.ldexp 1. e_max

  let index x =
    if x < min_regular then 0 (* also catches <= 0. and -0. *)
    else if x >= max_regular then nbuckets - 1
    else begin
      let m, e = Float.frexp x in
      let j = int_of_float (((2. *. m) -. 1.) *. float_of_int sub) in
      let j = if j >= sub then sub - 1 else if j < 0 then 0 else j in
      1 + ((e - e_min) * sub) + j
    end

  let lower_bound i =
    if i <= 0 then 0.
    else if i >= nbuckets - 1 then max_regular
    else begin
      let k = i - 1 in
      let e = e_min + (k / sub) and j = k mod sub in
      Float.ldexp (1. +. (float_of_int j /. float_of_int sub)) (e - 1)
    end

  let upper_bound i =
    if i <= 0 then min_regular
    else if i >= nbuckets - 1 then Float.infinity
    else begin
      let k = i - 1 in
      let e = e_min + (k / sub) and j = k mod sub in
      Float.ldexp (1. +. (float_of_int (j + 1) /. float_of_int sub)) (e - 1)
    end

  let merge a b =
    if Array.length a <> nbuckets || Array.length b <> nbuckets then
      invalid_arg "Registry.Hist.merge: bucket arrays of unexpected length";
    Array.init nbuckets (fun i -> a.(i) + b.(i))

  (* Nearest-rank quantile over a bucket array.  The estimate lands in the
     same bucket as the exact sorted sample of that rank, which is what the
     "within one log-linear bucket" test property relies on; within the
     bucket we interpolate by position and clamp to the observed range. *)
  let quantile ?(min_seen = Float.neg_infinity) ?(max_seen = Float.infinity)
      buckets q =
    if not (Float.is_finite q) || q < 0. || q > 1. then
      invalid_arg "Registry.Hist.quantile: q outside [0, 1]";
    let total = Array.fold_left ( + ) 0 buckets in
    if total = 0 then Float.nan
    else begin
      let rank =
        let r = int_of_float (Float.ceil (q *. float_of_int total)) - 1 in
        if r < 0 then 0 else if r > total - 1 then total - 1 else r
      in
      let rec go i cum =
        if i >= Array.length buckets then max_seen
        else begin
          let cum' = cum + buckets.(i) in
          if cum' > rank then begin
            let lo = lower_bound i and hi = upper_bound i in
            let frac =
              (float_of_int (rank - cum) +. 0.5) /. float_of_int buckets.(i)
            in
            let est =
              if Float.is_finite hi then lo +. ((hi -. lo) *. frac) else lo
            in
            Float.max (Float.min est max_seen) min_seen
          end
          else go (i + 1) cum'
        end
      in
      go 0 0
    end
end

(* ------------------------------------------------------------- metrics *)

type hist_shard = {
  buckets : int array;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type shard = {
  mutable acc : float; (* counter increments and gauge [add]s *)
  mutable set_v : float; (* last gauge [set] on this domain... *)
  mutable set_stamp : int; (* ...and the global stamp of that set *)
  hs : hist_shard option;
}

type metric = {
  name : string;
  help : string;
  kind : kind;
  stamp : int Atomic.t; (* shared across the registry; orders gauge sets *)
  mmu : Mutex.t;
  mutable shards : shard option array;
}

type t = {
  active : bool;
  rmu : Mutex.t;
  tbl : (string, metric) Hashtbl.t;
  mutable order : string list; (* registration order, newest first *)
  rstamp : int Atomic.t;
}

let null =
  {
    active = false;
    rmu = Mutex.create ();
    tbl = Hashtbl.create 1;
    order = [];
    rstamp = Atomic.make 1;
  }

let create () =
  {
    active = true;
    rmu = Mutex.create ();
    tbl = Hashtbl.create 32;
    order = [];
    rstamp = Atomic.make 1;
  }

let enabled r = r.active

let valid_name name =
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       name

let register r ~name ~help kind =
  if not (valid_name name) then
    invalid_arg
      (Printf.sprintf "Registry: %S is not a valid metric name" name);
  Mutex.lock r.rmu;
  let m =
    match Hashtbl.find_opt r.tbl name with
    | Some m ->
      if m.kind <> kind then begin
        Mutex.unlock r.rmu;
        invalid_arg
          (Printf.sprintf "Registry: %s already registered as a %s, not a %s"
             name (kind_to_string m.kind) (kind_to_string kind))
      end;
      m
    | None ->
      let m =
        {
          name;
          help;
          kind;
          stamp = r.rstamp;
          mmu = Mutex.create ();
          shards = [||];
        }
      in
      Hashtbl.add r.tbl name m;
      r.order <- name :: r.order;
      m
  in
  Mutex.unlock r.rmu;
  m

type counter = C of metric option [@@unboxed]
type gauge = G of metric option [@@unboxed]
type histogram = H of metric option [@@unboxed]

let counter r ~name ~help =
  if not r.active then C None else C (Some (register r ~name ~help Counter))

let gauge r ~name ~help =
  if not r.active then G None else G (Some (register r ~name ~help Gauge))

let histogram r ~name ~help =
  if not r.active then H None
  else H (Some (register r ~name ~help Histogram))

let new_shard m =
  {
    acc = 0.;
    set_v = 0.;
    set_stamp = 0;
    hs =
      (match m.kind with
      | Histogram ->
        Some
          {
            buckets = Array.make Hist.nbuckets 0;
            h_count = 0;
            h_sum = 0.;
            h_min = Float.infinity;
            h_max = Float.neg_infinity;
          }
      | Counter | Gauge -> None);
  }

(* Slow path, under the metric's lock: grow the table when this domain's
   slot lies past its end, then install the domain's shard if it has none. *)
let install_shard m d =
  Mutex.lock m.mmu;
  let shards = m.shards in
  let shards =
    if d < Array.length shards then shards
    else begin
      let bigger = Array.make (d + 1) None in
      Array.blit shards 0 bigger 0 (Array.length shards);
      (* publish after the copy so racy readers only ever see tables
         containing every previously installed shard *)
      m.shards <- bigger;
      bigger
    end
  in
  let s =
    match shards.(d) with
    | Some s -> s
    | None ->
      let s = new_shard m in
      shards.(d) <- Some s;
      s
  in
  Mutex.unlock m.mmu;
  s

(* Fast path: fetch (installing on first use) this domain's shard. *)
let shard_for m =
  let d = (Domain.self () :> int) in
  let shards = m.shards in
  if d < Array.length shards then
    match Array.unsafe_get shards d with
    | Some s -> s
    | None -> install_shard m d
  else install_shard m d

let incr_by (C c) n =
  match c with
  | None -> ()
  | Some m ->
    if n < 0. then invalid_arg "Registry.incr_by: counters only go up";
    let s = shard_for m in
    s.acc <- s.acc +. n

let incr c = incr_by c 1.

let set (G g) v =
  match g with
  | None -> ()
  | Some m ->
    let s = shard_for m in
    s.set_v <- v;
    s.set_stamp <- Atomic.fetch_and_add m.stamp 1

let add (G g) v =
  match g with
  | None -> ()
  | Some m ->
    let s = shard_for m in
    s.acc <- s.acc +. v

let observe (H h) x =
  match h with
  | None -> ()
  | Some m ->
    if not (Float.is_nan x) then begin
      let s = shard_for m in
      match s.hs with
      | None -> assert false
      | Some hs ->
        let i = Hist.index x in
        hs.buckets.(i) <- hs.buckets.(i) + 1;
        hs.h_count <- hs.h_count + 1;
        hs.h_sum <- hs.h_sum +. x;
        if x < hs.h_min then hs.h_min <- x;
        if x > hs.h_max then hs.h_max <- x
    end

(* ------------------------------------------------------------ snapshots *)

type hist_snap = {
  count : int;
  sum : float;
  hmin : float; (* nan when empty *)
  hmax : float;
  p50 : float;
  p90 : float;
  p99 : float;
  buckets : (float * int) list; (* (upper bound, cumulative count), nonempty *)
}

type value = Counter_v of float | Gauge_v of float | Hist_v of hist_snap

type metric_snap = { ms_name : string; ms_help : string; ms_value : value }
type snapshot = metric_snap list

let merge_metric m =
  Mutex.lock m.mmu;
  let shards = Array.to_list m.shards in
  let live = List.filter_map Fun.id shards in
  let v =
    match m.kind with
    | Counter ->
      Counter_v (List.fold_left (fun acc s -> acc +. s.acc) 0. live)
    | Gauge ->
      (* last [set] wins (ordered by the registry stamp), [add]s on top *)
      let set_v, _ =
        List.fold_left
          (fun (v, st) s ->
            if s.set_stamp > st then (s.set_v, s.set_stamp) else (v, st))
          (0., 0) live
      in
      Gauge_v (set_v +. List.fold_left (fun acc s -> acc +. s.acc) 0. live)
    | Histogram ->
      let hists = List.filter_map (fun s -> s.hs) live in
      let buckets =
        List.fold_left
          (fun acc (hs : hist_shard) -> Hist.merge acc hs.buckets)
          (Array.make Hist.nbuckets 0) hists
      in
      let count = ref 0 and sum = ref 0. in
      let mn = ref Float.infinity and mx = ref Float.neg_infinity in
      List.iter
        (fun hs ->
          count := !count + hs.h_count;
          sum := !sum +. hs.h_sum;
          if hs.h_min < !mn then mn := hs.h_min;
          if hs.h_max > !mx then mx := hs.h_max)
        hists;
      let empty = !count = 0 in
      let hmin = if empty then Float.nan else !mn
      and hmax = if empty then Float.nan else !mx in
      let q p =
        if empty then Float.nan
        else Hist.quantile ~min_seen:hmin ~max_seen:hmax buckets p
      in
      let cum = ref 0 in
      let bs = ref [] in
      Array.iteri
        (fun i n ->
          if n > 0 then begin
            cum := !cum + n;
            bs := (Hist.upper_bound i, !cum) :: !bs
          end)
        buckets;
      Hist_v
        {
          count = !count;
          sum = !sum;
          hmin;
          hmax;
          p50 = q 0.5;
          p90 = q 0.9;
          p99 = q 0.99;
          buckets = List.rev !bs;
        }
  in
  Mutex.unlock m.mmu;
  { ms_name = m.name; ms_help = m.help; ms_value = v }

let snapshot r =
  if not r.active then []
  else begin
    Mutex.lock r.rmu;
    let names = List.rev r.order in
    let metrics = List.filter_map (Hashtbl.find_opt r.tbl) names in
    Mutex.unlock r.rmu;
    List.map merge_metric metrics
  end

(* -------------------------------------------------------- JSON exchange *)

let num_or_null x = if Float.is_finite x then Json.Num x else Json.Null

let snapshot_to_json snap =
  let metric ms =
    let common kind =
      [ ("name", Json.Str ms.ms_name); ("kind", Json.Str kind);
        ("help", Json.Str ms.ms_help) ]
    in
    match ms.ms_value with
    | Counter_v v -> Json.Obj (common "counter" @ [ ("value", Json.Num v) ])
    | Gauge_v v -> Json.Obj (common "gauge" @ [ ("value", Json.Num v) ])
    | Hist_v h ->
      Json.Obj
        (common "histogram"
        @ [
            ("count", Json.Num (float_of_int h.count));
            ("sum", num_or_null h.sum);
            ("min", num_or_null h.hmin);
            ("max", num_or_null h.hmax);
            ("p50", num_or_null h.p50);
            ("p90", num_or_null h.p90);
            ("p99", num_or_null h.p99);
            ( "buckets",
              Json.List
                (List.map
                   (fun (le, cum) ->
                     Json.Obj
                       [
                         ( "le",
                           if Float.is_finite le then Json.Num le
                           else Json.Str "+Inf" );
                         ("cum", Json.Num (float_of_int cum));
                       ])
                   h.buckets) );
          ])
  in
  Json.Obj
    [
      ("schema", Json.Str "moldable_obs/snapshot/v1");
      ("metrics", Json.List (List.map metric snap));
    ]

let snapshot_of_json j =
  let ( let* ) o f = match o with Some x -> f x | None -> None in
  let shape = "moldable_obs/snapshot/v1" in
  let metric jm =
    let* name = Option.bind (Json.member "name" jm) Json.to_str in
    let* kind = Option.bind (Json.member "kind" jm) Json.to_str in
    let help =
      Option.value ~default:""
        (Option.bind (Json.member "help" jm) Json.to_str)
    in
    let num k = Option.bind (Json.member k jm) Json.to_float in
    let num_or_nan k =
      match Json.member k jm with
      | Some (Json.Num x) -> x
      | Some Json.Null | None -> Float.nan
      | Some _ -> Float.nan
    in
    match kind with
    | "counter" ->
      let* v = num "value" in
      Some { ms_name = name; ms_help = help; ms_value = Counter_v v }
    | "gauge" ->
      let* v = num "value" in
      Some { ms_name = name; ms_help = help; ms_value = Gauge_v v }
    | "histogram" ->
      let* count = Option.bind (Json.member "count" jm) Json.to_int in
      let buckets =
        match Option.bind (Json.member "buckets" jm) Json.to_list with
        | None -> []
        | Some bs ->
          List.filter_map
            (fun b ->
              let le =
                match Json.member "le" b with
                | Some (Json.Num x) -> Some x
                | Some (Json.Str "+Inf") -> Some Float.infinity
                | _ -> None
              in
              let* le = le in
              let* cum = Option.bind (Json.member "cum" b) Json.to_int in
              Some (le, cum))
            bs
      in
      Some
        {
          ms_name = name;
          ms_help = help;
          ms_value =
            Hist_v
              {
                count;
                sum = num_or_nan "sum";
                hmin = num_or_nan "min";
                hmax = num_or_nan "max";
                p50 = num_or_nan "p50";
                p90 = num_or_nan "p90";
                p99 = num_or_nan "p99";
                buckets;
              };
        }
    | _ -> None
  in
  match Option.bind (Json.member "schema" j) Json.to_str with
  | Some s when s = shape -> begin
    match Option.bind (Json.member "metrics" j) Json.to_list with
    | None -> Error "snapshot: missing \"metrics\" array"
    | Some ms -> begin
      let parsed = List.map metric ms in
      if List.exists Option.is_none parsed then
        Error "snapshot: malformed metric entry"
      else Ok (List.filter_map Fun.id parsed)
    end
  end
  | Some s -> Error (Printf.sprintf "snapshot: unknown schema %S" s)
  | None -> Error "snapshot: missing \"schema\" field"

(* --------------------------------------------------------- CLI rendering *)

let fnum x =
  if Float.is_nan x then "-"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.6g" x

let to_rows snap =
  List.map
    (fun ms ->
      match ms.ms_value with
      | Counter_v v -> [ ms.ms_name; "counter"; fnum v; ""; ms.ms_help ]
      | Gauge_v v -> [ ms.ms_name; "gauge"; fnum v; ""; ms.ms_help ]
      | Hist_v h ->
        [
          ms.ms_name;
          "histogram";
          Printf.sprintf "n=%d sum=%s" h.count (fnum h.sum);
          Printf.sprintf "p50=%s p90=%s p99=%s max=%s" (fnum h.p50)
            (fnum h.p90) (fnum h.p99) (fnum h.hmax);
          ms.ms_help;
        ])
    snap

let row_header = [ "metric"; "kind"; "value"; "quantiles"; "help" ]
