(* GC/allocation sampling built on [Gc.quick_stat] (no heap traversal, so
   safe to call on the hot path between bench sections and sweep cells). *)

type t = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;
  top_heap_words : int;
}

let read () =
  let s = Gc.quick_stat () in
  {
    (* [quick_stat] is only refreshed at collection boundaries on OCaml 5,
       so a run too small to trigger a minor GC would report 0 allocated
       words; [Gc.minor_words] reads the allocation pointer directly and
       is always exact.  The collection-driven fields below genuinely hold
       their last collection-boundary values. *)
    minor_words = Gc.minor_words ();
    promoted_words = s.Gc.promoted_words;
    major_words = s.Gc.major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    compactions = s.Gc.compactions;
    heap_words = s.Gc.heap_words;
    top_heap_words = s.Gc.top_heap_words;
  }

(* Counters diff; instantaneous sizes keep the [after] value. *)
let diff ~before ~after =
  {
    minor_words = after.minor_words -. before.minor_words;
    promoted_words = after.promoted_words -. before.promoted_words;
    major_words = after.major_words -. before.major_words;
    minor_collections = after.minor_collections - before.minor_collections;
    major_collections = after.major_collections - before.major_collections;
    compactions = after.compactions - before.compactions;
    heap_words = after.heap_words;
    top_heap_words = after.top_heap_words;
  }

(* Surface a sample as registry gauges (idempotent registration, so this
   can be called repeatedly to refresh the values). *)
let observe registry t =
  if Registry.enabled registry then begin
    let g name help v =
      Registry.set (Registry.gauge registry ~name ~help) v
    in
    g "moldable_gc_minor_words" "Minor-heap words allocated" t.minor_words;
    g "moldable_gc_promoted_words" "Words promoted to the major heap"
      t.promoted_words;
    g "moldable_gc_major_words" "Major-heap words allocated" t.major_words;
    g "moldable_gc_minor_collections" "Minor collections"
      (float_of_int t.minor_collections);
    g "moldable_gc_major_collections" "Major collections"
      (float_of_int t.major_collections);
    g "moldable_gc_heap_words" "Current major heap size in words"
      (float_of_int t.heap_words);
    g "moldable_gc_top_heap_words" "Peak major heap size in words"
      (float_of_int t.top_heap_words)
  end
