(** The scheduler daemon: a line-delimited JSON protocol ({!Protocol}) over
    TCP or Unix-domain sockets, one simulation session per connection.

    Sessions run concurrently on {!Moldable_util.Pool} domains: every worker
    alternates between accepting on the shared listening socket and serving
    the accepted connection to completion, so [sessions] is both the
    parallelism degree and the concurrent-connection capacity (further
    clients queue in the kernel backlog).  Each session drives its own
    {!Moldable_sim.Sim_core.Stepper} on the worker domain's arena, so a
    long-running daemon reaches an allocation-steady state.

    Wire path: a session reads whatever the socket holds (it waits in
    [select] only when a read would block), frames the request lines in
    place in one input buffer, and serves them in order.  Each response is
    rendered with {!Moldable_obs.Json.to_buffer} into the session's one
    output buffer, which is written out ("flushed") once after every line
    of a read batch has been served, so a client that pipelines k requests
    costs one write, not k.  The buffer is also flushed whenever it reaches
    64 KiB (a pipelining client cannot grow server memory past that plus
    one response), and before the session ends: after the [close] response,
    after a [limit] error (request budget or over-long line) and when the
    [stop] flag is seen between two lines of a batch.  Responses go out in
    request order and are byte-identical to rendering each one separately.

    Each request line is read in one pass by {!Protocol.decode}, into a
    field table the session keeps from one line to the next: no JSON tree
    is built, and a line is accepted or rejected exactly as the hardened
    {!Moldable_obs.Json.of_string} followed by {!Protocol.request_of_json}
    would accept or reject it.

    Robustness against untrusted peers: request lines are bounded
    ([max_line_bytes]), per-session request and task counts are bounded,
    idle connections time out, and a peer that stops reading its
    responses is evicted once a flush stays blocked longer than
    [write_timeout] (bounded write buffering — the slow-consumer policy).
    A malformed line gets a [parse_error] response and the session
    continues at the next newline.  A run whose stepper raises on
    [advance] or [drain] (a policy error, or an event time that overflows
    on extreme but finite task parameters) is abandoned with an
    [internal] response; the session carries on.

    Shutdown is cooperative: set the [stop] flag (the CLI does so from its
    SIGTERM handler) and {!serve} stops accepting, lets every in-flight
    request finish, answers nothing further, closes all sessions and
    returns. *)

type limits = {
  max_line_bytes : int;  (** Longest accepted request line (default 1 MiB). *)
  max_requests : int;  (** Per-session request budget. *)
  max_tasks : int;  (** Per-run admitted-task budget. *)
  idle_timeout : float;  (** Seconds without a request before close. *)
  write_timeout : float;
      (** Seconds one flush of the session's buffered responses may take
          while the peer is not reading before the peer is evicted. *)
}

val default_limits : limits

type config = {
  sessions : int;  (** Concurrent session workers, [>= 1]. *)
  limits : limits;
  registry : Moldable_obs.Registry.t;
      (** Live registry: the server publishes
          [moldable_service_sessions_total], [..._sessions_active],
          [..._requests_total], [..._protocol_errors_total],
          [..._evictions_total] and the
          [moldable_service_decision_latency_seconds] histogram (wall-clock
          seconds to admit each submitted task; the allocator's decision
          runs later, in [advance]), and serves the whole registry through
          the [metrics] op. *)
}

val default_config : ?registry:Moldable_obs.Registry.t -> unit -> config
(** Two session workers, {!default_limits}, null registry. *)

type listener

val listen_tcp : host:string -> port:int -> (listener, string) result
(** Bind and listen on [host:port] ([port = 0] picks a free port; read it
    back with {!port}).  [Error] carries the [Unix] failure (e.g. address
    in use). *)

val listen_unix : path:string -> (listener, string) result
(** Bind and listen on a Unix-domain socket.  An existing socket file at
    [path] is replaced; any other existing file is an error.  The file is
    unlinked by {!close_listener}. *)

val address : listener -> string
(** Printable bound address: [HOST:PORT] or [unix:PATH]. *)

val port : listener -> int option
(** The actually bound TCP port ([None] for Unix sockets). *)

val close_listener : listener -> unit
(** Close the socket (and unlink a Unix socket file).  Idempotent;
    {!serve} does this on return. *)

val serve : ?stop:bool Atomic.t -> config -> listener -> unit
(** Serve until [stop] becomes true (never, by default — the caller keeps
    the flag and flips it from a signal handler).  Blocks the calling
    domain; the listener is closed on return, also on exceptions.
    @raise Invalid_argument if [sessions < 1] or a limit is non-positive. *)
