(** Decision-level structured tracing of a simulation run.

    A tracer records what the run's own recording does not hold: why the
    policy decided, when the scheduler waited, and where the wall-clock
    time went.  It holds three families:

    - {e decision provenance} — one {!Moldable_model.Task.decision} per
      task, the record the allocator's [explain] returned when the
      scheduling policy fixed the task's allocation: the analysis it was
      decided on, the Step-1 initial allocation [p_star], the [beta]
      budget [delta(mu)], the Step-2 cap [ceil(mu P)] and whether it bit,
      the final allocation, and how many feasibility candidates Step 1
      probed.  The [alpha]/[beta] ratios are derived from the analysis
      when printed.  Re-reveals after failed attempts do not duplicate the
      record: provenance is per task, not per attempt.
    - {e scheduler instants} — {!instant} markers for reveals, deferred
      releases and stalls.
    - {e self-profile} — one {!Moldable_obs.Registry} histogram per
      {!phase} (event loop, launch rounds, task analysis, allocator, ready
      queue), charged by the event loop and the policy with
      {!Moldable_util.Clock.now} (CLOCK_MONOTONIC) intervals, so hot-path
      regressions are visible without an external profiler.

    Execution spans are not recorded here: they are the run's attempts,
    {!Metrics.attempts}, replayed from its recording.  A run with a live
    tracer therefore always records in full ([?lean] is ignored).
    {!Moldable_viz.Chrome_trace} renders the attempts with these instants
    as a Chrome trace-event JSON for [chrome://tracing] / Perfetto.

    Tracing is zero-cost when off: {!null} is permanently disabled, every
    recording entry point checks {!enabled} before allocating anything, and
    hot-path callers guard with [if Tracer.enabled t then ...] so a
    [Tracer.null] run performs no tracing work beyond one branch per
    hook. *)

type instant_kind =
  | Ready     (** Task entered the ready queue (reveal or re-reveal). *)
  | Deferred  (** Task's reveal was postponed to its release time. *)
  | Stall     (** A launch round ended with ready tasks left waiting. *)

type instant = {
  time : float;
  kind : instant_kind;
  subject : int;  (** Task id; [-1] for {!Stall}. *)
}

(** The self-profiled phases of a run, printed by {!pp_profile} as
    [event-loop], [launch-round], [analyze], [allocator] and [ready-queue]. *)
type phase = Event_loop | Launch_round | Analyze | Allocator | Ready_queue

type t

val null : t
(** The permanently disabled tracer (the default everywhere): recording is
    a no-op and allocates nothing; its timers are
    {!Moldable_obs.Registry.null} handles. *)

val create : unit -> t
(** A fresh, enabled tracer.  Its private registry holds the five
    [moldable_tracer_<phase>_seconds] histograms, registered here once. *)

val enabled : t -> bool

val timed : t -> phase -> (unit -> 'a) -> 'a
(** [timed t phase f] charges [f]'s elapsed time to [phase]'s histogram
    when enabled (also when [f] raises), and is exactly [f ()] otherwise.
    Safe from several domains at once. *)

val profile : t -> Moldable_obs.Registry.snapshot
(** The five self-profile histograms, in {!phase} declaration order; empty
    for {!null}. *)

(** {1 Recording (no-ops on {!null})} *)

val record_decision : t -> Moldable_model.Task.decision -> unit
(** Keeps the {e first} decision per task id (the id of the analyzed
    task); later records (re-reveals after failures) are ignored. *)

val record_instant : t -> time:float -> kind:instant_kind -> subject:int -> unit

(** {1 Querying} *)

val decisions : t -> Moldable_model.Task.decision list
(** Sorted by task id. *)

val decision_for : t -> int -> Moldable_model.Task.decision option
val instants : t -> instant list
(** Chronological (recording order). *)

val n_decisions : t -> int

val pp_decision : Format.formatter -> Moldable_model.Task.decision -> unit
(** Multi-line provenance dump of one decision (the [--explain] output):
    the task's label, model, platform size, [p_max], [t_min] and [a_min],
    and the [alpha]/[beta] ratios at [p_star] and at the final allocation,
    all derived from the decision's analysis, beside the rule's own
    outputs. *)

val pp_profile : Format.formatter -> t -> unit
(** The self-profile section: one line per charged phase (name, total
    seconds, calls, mean and max), by decreasing total, ties by name. *)
