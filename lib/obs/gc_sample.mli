(** GC/allocation sampler built on [Gc.quick_stat].

    [read] captures the cumulative process-wide counters; [diff] turns two
    captures into a per-section delta (allocation counters subtracted,
    instantaneous heap sizes keeping the [after] value).  Bench samples a
    delta per section and per sweep; [observe] republishes a sample as
    [moldable_gc_*] registry gauges.

    [minor_words] comes from [Gc.minor_words] (reads the allocation
    pointer, exact at any moment); the remaining fields come from
    [Gc.quick_stat], which OCaml 5 refreshes only at collection
    boundaries, so they hold their last collection-boundary values until
    the next minor/major collection. *)

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

val read : unit -> t
val diff : before:t -> after:t -> t
val observe : Registry.t -> t -> unit
