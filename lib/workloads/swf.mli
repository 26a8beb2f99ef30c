(** Standard Workload Format (SWF) traces — the de-facto format of the
    Parallel Workloads Archive job logs.  Replaying such a trace gives the
    "realistic workflows" evaluation a grounding in real supercomputer
    arrival patterns: each logged job becomes an independent moldable task
    released at its submit time.

    Only the fields this library needs are interpreted: job number (1),
    submit time (2), run time (4) and allocated processors (5); the
    remaining of the 18 standard fields are accepted and ignored.  Lines
    starting with [';'] are header/comment lines.

    A logged job fixes one point [(q0, t0)] of its (unknown) speedup curve;
    {!to_workload} synthesizes a moldable model through that point:

    - [`Roofline]: linear speedup up to the observed width
      ([w = q0 t0], [ptilde = q0]) — conservative: the job can shrink
      perfectly but not grow;
    - [`Amdahl f_range]: a sequential fraction [f] drawn from the range,
      [d = f t0 / (1-f+f/q0)]-style normalization so that [t(q0) = t0]
      exactly, and no parallelism cap. *)

open Moldable_util
open Moldable_graph

type job = {
  id : int;
  submit : float;    (** Seconds since trace start, >= 0. *)
  run_time : float;  (** Observed duration, > 0. *)
  procs : int;       (** Allocated processors, >= 1. *)
}

type load = {
  jobs : job list;
  skipped_lines : int;
      (** Records skipped by convention: [-1] ("unknown") run time or
          processor count, [0] run time (cancelled jobs), negative submit
          times, and malformed records (fewer than 5 fields or unparsable
          numbers). *)
}

val parse : string -> (load, string) result
(** Skipped records are counted, not silently dropped — a loader can
    surface [skipped_lines] so a half-garbage log is visible.  Negative
    run times or processor counts other than the [-1] sentinel are data
    corruption and yield [Error] naming the offending line. *)

val parse_file : string -> (load, string) result

val synthetic : rng:Rng.t -> n:int -> mean_interarrival:float -> max_procs:int -> job list
(** A plausible synthetic trace: Poisson arrivals, log-uniform runtimes
    (30 s – 8 h), power-of-two-leaning processor counts in
    [\[1, max_procs\]]. *)

val to_workload :
  ?model:[ `Roofline | `Amdahl of float * float ] -> rng:Rng.t ->
  job list -> Dag.t * float array
(** The independent task set and its release-time vector (for
    {!Moldable_sim.Sim_core.run}).  Default model [`Roofline].
    @raise Invalid_argument on an empty job list. *)
