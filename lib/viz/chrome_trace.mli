(** Chrome trace-event JSON export of a traced simulation run.

    The output is a standard [{"traceEvents": [...]}] document that loads
    in [chrome://tracing] and {{:https://ui.perfetto.dev}Perfetto}:

    - every execution attempt becomes a complete-duration ([ph = "X"]) span
      on the lane ("thread") of its lowest processor id — one lane per
      processor block, named [procs k..] — with the task, attempt number,
      allocation, processor range and outcome in [args];
    - reveal / deferred-release / stall markers become process-scoped
      instant events ([ph = "i"]);
    - the free-processor timeline and the ready-queue depth become counter
      tracks ([ph = "C"]).

    Timestamps are simulation time converted to microseconds.  The output
    is deterministic (fixed event order, fixed float formatting), so a
    fixed-seed run exports byte-identically — pinned by a golden test. *)

open Moldable_sim

val of_run :
  ?label:(int -> string) ->
  Tracer.t ->
  Metrics.t ->
  string
(** [of_run tracer metrics] renders the run's attempts (replayed from
    [metrics]' recording, see {!Moldable_sim.Metrics.attempts}), the
    tracer's instants and the metrics' counter timelines.  [label] names
    tasks in span names (default ["t<id>"]). *)
