external now : unit -> (float[@unboxed])
  = "moldable_clock_now" "moldable_clock_now_unboxed"
[@@noalloc]
