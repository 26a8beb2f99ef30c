open Moldable_model

type item = { task : Task.t; alloc : int; t_min : float; seq : int }

type rank = By_arrival | By_t_min | By_area | By_alloc | By_neg_alloc

let rank_key rank task ~alloc ~t_min =
  match rank with
  | By_arrival -> 0.
  | By_t_min -> t_min
  | By_area -> Task.area task alloc
  | By_alloc -> float_of_int alloc
  | By_neg_alloc -> -.float_of_int alloc

type t = { name : string; rank : rank; compare : item -> item -> int }

(* Higher key first, then lower arrival number.  Keys go through
   Float.compare, never polymorphic compare: the latter treats NaN
   inconsistently across comparison contexts, which breaks antisymmetry and
   with it the heap invariant of a queue.  Float.compare totally orders NaN
   (below every other float, equal to itself), so the priority order stays
   total even on a poisoned key. *)
let of_rank ~name rank =
  let key i = rank_key rank i.task ~alloc:i.alloc ~t_min:i.t_min in
  {
    name;
    rank;
    compare =
      (fun a b ->
        match Float.compare (key b) (key a) with
        | 0 -> Int.compare a.seq b.seq
        | c -> c);
  }

let fifo = of_rank ~name:"fifo" By_arrival
let longest_first = of_rank ~name:"longest-first" By_t_min
let largest_area_first = of_rank ~name:"largest-area-first" By_area
let widest_first = of_rank ~name:"widest-first" By_alloc
let narrowest_first = of_rank ~name:"narrowest-first" By_neg_alloc

let all = [ fifo; longest_first; largest_area_first; widest_first;
            narrowest_first ]
