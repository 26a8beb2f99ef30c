open Moldable_model

type item = { task : Task.t; alloc : int; t_min : float; seq : int }

type t = {
  name : string;
  key : item -> float;
  tie : item -> int;
  compare : item -> item -> int;
}

(* Keys go through Float.compare, never polymorphic compare: the latter
   treats NaN inconsistently across comparison contexts, which breaks
   antisymmetry and with it the heap invariant of the ready queue.
   Float.compare totally orders NaN (below every other float, equal to
   itself), so the priority order stays total even on a poisoned key. *)
let make ~name ~key ~tie =
  {
    name;
    key;
    tie;
    compare =
      (fun a b ->
        match Float.compare (key b) (key a) with
        | 0 -> Int.compare (tie a) (tie b)
        | c -> c);
  }

let seq i = i.seq
let fifo = make ~name:"fifo" ~key:(fun _ -> 0.) ~tie:seq
let longest_first = make ~name:"longest-first" ~key:(fun i -> i.t_min) ~tie:seq

let largest_area_first =
  make ~name:"largest-area-first"
    ~key:(fun i -> Task.area i.task i.alloc)
    ~tie:seq

let widest_first =
  make ~name:"widest-first" ~key:(fun i -> float_of_int i.alloc) ~tie:seq

let narrowest_first =
  make ~name:"narrowest-first"
    ~key:(fun i -> -.float_of_int i.alloc)
    ~tie:seq

let all = [ fifo; longest_first; largest_area_first; widest_first;
            narrowest_first ]
