(* Timing, sample statistics and the in-memory span recorder shared by the
   three workloads.

   Every timestamp is a read of CLOCK_MONOTONIC in integer nanoseconds
   (bechamel's allocation-free stub). *)

let[@inline] now () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now () - t0) *. 1e-9

(* Median cost of an empty [now (); now ()] pair: subtracted from every
   per-call span so that wrapped layers are not charged for the clock. *)
let clock_overhead_ns =
  lazy
    (let n = 20_001 in
     let d = Array.make n 0 in
     for i = 0 to n - 1 do
       let t0 = now () in
       let t1 = now () in
       d.(i) <- t1 - t0
     done;
     Array.sort compare d;
     d.(n / 2))

(* ------------------------------------------------------------ statistics *)

let sorted_copy xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an already-sorted array, [q] in [0, 100]. *)
let percentile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = int_of_float (Float.ceil (q /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (r - 1)))

let percentile xs q = percentile_sorted (sorted_copy xs) q
let median xs = percentile xs 50.

(* The highest of the usual tail percentiles that still has at least ten
   samples beyond it.  [None] when even the median has fewer than ten
   samples above it (fewer than 20 samples). *)
let tail_percentile n =
  List.find_opt
    (fun q -> float_of_int n *. (1. -. (q /. 100.)) >= 10.)
    [ 99.9; 99.; 95.; 90.; 75.; 50. ]

(* ------------------------------------------------------------------- gc *)

type gc = { minor : float; major : float; minor_gcs : int; major_gcs : int }

let gc () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_words;
    major = s.Gc.major_words;
    minor_gcs = s.Gc.minor_collections;
    major_gcs = s.Gc.major_collections;
  }

let gc_diff a b =
  {
    minor = b.minor -. a.minor;
    major = b.major -. a.major;
    minor_gcs = b.minor_gcs - a.minor_gcs;
    major_gcs = b.major_gcs - a.major_gcs;
  }

let zero_gc = { minor = 0.; major = 0.; minor_gcs = 0; major_gcs = 0 }

let gc_add a b =
  {
    minor = a.minor +. b.minor;
    major = a.major +. b.major;
    minor_gcs = a.minor_gcs + b.minor_gcs;
    major_gcs = a.major_gcs + b.major_gcs;
  }

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* ---------------------------------------------------------------- spans *)

(* Spans recorded around calls into the program's layers.  They are kept in
   flat int arrays (name, start, end, parent) and written out, emptying
   the buffer, when a workload ends; past [cap] spans only the count
   grows. *)
module Span = struct
  let on = ref false
  let cap = 200_000
  let names : (string, int) Hashtbl.t = Hashtbl.create 32
  let name_list = ref []
  let name_ = Array.make cap 0
  let start_ = Array.make cap 0
  let stop_ = Array.make cap 0
  let parent_ = Array.make cap (-1)
  let len = ref 0
  let dropped = ref 0

  let intern name =
    match Hashtbl.find_opt names name with
    | Some id -> id
    | None ->
      let id = Hashtbl.length names in
      Hashtbl.add names name id;
      name_list := name :: !name_list;
      id

  (* Returns the span's index (to pass as a child's [parent]), or -1. *)
  let add ?(parent = -1) id t0 t1 =
    if not !on then -1
    else if !len >= cap then begin
      incr dropped;
      -1
    end
    else begin
      let i = !len in
      name_.(i) <- id;
      start_.(i) <- t0;
      stop_.(i) <- t1;
      parent_.(i) <- parent;
      len := i + 1;
      i
    end

  let write path =
    let names = Array.of_list (List.rev !name_list) in
    let oc = open_out path in
    Printf.fprintf oc "# index\tname\tstart_ns\tend_ns\tparent\n";
    for i = 0 to !len - 1 do
      Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\n" i names.(name_.(i)) start_.(i)
        stop_.(i) parent_.(i)
    done;
    if !dropped > 0 then
      Printf.fprintf oc "# %d further spans not kept\n" !dropped;
    close_out oc;
    len := 0;
    dropped := 0
end

(* The tail reported for a run's operation times: the highest percentile
   with at least ten samples beyond it, or the slowest operation when there
   are fewer than 20.  Returns the percentile used (100 for the maximum). *)
let tail xs =
  match tail_percentile (Array.length xs) with
  | Some q when q > 50. -> (q, percentile xs q)
  | _ -> (100., Array.fold_left Float.max neg_infinity xs)
