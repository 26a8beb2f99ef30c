(** Decision-level structured tracing of a simulation run.

    A tracer records what the run's own recording does not hold: why the
    policy decided, when the scheduler waited, and where the wall-clock
    time went.  It holds three families:

    - {e decision provenance} — one {!decision} per task, emitted by the
      scheduling policy when the allocator fixes the task's allocation:
      the Step-1 initial allocation [p_star] with its [alpha]/[beta]
      ratios, the [beta] budget [delta(mu)], the Step-2 cap [ceil(mu P)]
      and whether it bit, the final allocation, and how many feasibility
      candidates Step 1 probed.  Re-reveals after failed attempts do not
      duplicate the record: provenance is per task, not per attempt.
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

type decision = {
  task_id : int;
  label : string;
  model : string;        (** Speedup family ({!Moldable_model.Speedup.kind_name}). *)
  p : int;               (** Platform size the decision was taken for. *)
  p_max : int;           (** Equation (5) maximum useful allocation. *)
  t_min : float;         (** Minimum execution time [t(p_max)]. *)
  a_min : float;         (** Minimum area. *)
  p_star : int;          (** Step-1 initial allocation. *)
  alpha : float;         (** [alpha(p_star) = a(p_star) / a_min]. *)
  beta : float;          (** [beta(p_star) = t(p_star) / t_min]. *)
  beta_budget : float;   (** [delta(mu)] bound on [beta]; [nan] when the
                             rule carries no feasibility budget. *)
  cap : int;             (** Step-2 ceiling ([ceil(mu P)]; [p] when the rule
                             has no cap). *)
  cap_applied : bool;    (** Whether the cap reduced [p_star]. *)
  final_alloc : int;     (** The allocation actually scheduled. *)
  alpha_final : float;   (** [alpha] at {!field-final_alloc}. *)
  beta_final : float;    (** [beta] at {!field-final_alloc}. *)
  candidates_scanned : int;
      (** Feasibility probes Step 1 evaluated (binary-search probes for
          monotonic models, [p_max] for the exhaustive Arbitrary scan; 0 for
          trivial rules). *)
}

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

val record_decision : t -> decision -> unit
(** Keeps the {e first} decision per task id; later records (re-reveals
    after failures) are ignored. *)

val record_instant : t -> time:float -> kind:instant_kind -> subject:int -> unit

(** {1 Querying} *)

val decisions : t -> decision list
(** Sorted by task id. *)

val decision_for : t -> int -> decision option
val instants : t -> instant list
(** Chronological (recording order). *)

val n_decisions : t -> int

val pp_decision : Format.formatter -> decision -> unit
(** Multi-line provenance dump of one decision (the [--explain] output). *)

val pp_profile : Format.formatter -> t -> unit
(** The self-profile section: one line per charged phase (name, total
    seconds, calls, mean and max), by decreasing total, ties by name. *)
