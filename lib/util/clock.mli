(** The one time source for every measured interval in the project.

    {!now} reads [CLOCK_MONOTONIC] through a C stub: it never goes
    backwards and is unaffected by wall-clock steps (NTP, [settimeofday]),
    with nanosecond granularity at the cost of one call and no allocation.
    Its origin is arbitrary (typically boot time), so only differences
    between two readings are meaningful.  The tracer's self-profile, the
    registry latency histograms, the daemon's deadlines and the bench all
    measure through it. *)

external now : unit -> (float[@unboxed])
  = "moldable_clock_now" "moldable_clock_now_unboxed"
[@@noalloc]
(** Seconds since an arbitrary fixed origin, non-decreasing across calls
    and domains.  Subtract two readings to time an interval. *)
