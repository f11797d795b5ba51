(** Concurrent TCP server exposing the full {!Pb_shell.Repl} surface
    (PaQL queries, SQL, backslash commands) over the {!Protocol} wire
    format.

    One {!Pb_sql.Database.t} is shared by every connection (it is
    internally thread-safe); each connection gets its own private
    session, so [\save]/[\packages] bookkeeping like "the last query's
    package" is per-client while the data itself is shared — exactly
    the shared-DBMS, per-session model of the paper.

    {2 Serving model}

    One event-loop thread multiplexes every connection over an
    epoll/poll readiness {!Poller}. Connections are non-blocking;
    incoming bytes feed a per-connection incremental {!Assembler},
    complete requests go to a bounded job queue served by a pool of
    [max_inflight] worker threads, and responses flow back through
    per-connection write buffers flushed on writability. An idle
    connection costs its buffers — no thread, no stack — so thousands
    of mostly-idle clients are cheap.

    Admission: when [max_connections] sessions are live, further
    clients are sent one [busy] frame and closed immediately; at most
    [max_inflight] requests evaluate concurrently, with up to
    [max_queue] more queued — a request arriving past both limits is
    answered [busy] at once and the connection stays usable
    (backpressure, not unbounded buffering). A connection has at most
    one request queued or evaluating; its later pipelined frames wait
    unread. Queue depth and in-flight count are exported as the
    [pb_net_queue_depth] and [pb_net_inflight_requests] gauges, along
    with [pb_net_open_connections] and [pb_net_eventloop_wakeups_total].

    Deadlines: a request carrying a deadline (or inheriting
    [default_deadline]) evaluates under a per-request {!Pb_util.Gov}
    token carrying that deadline. Every engine and SQL loop polls the
    token, so an overrun request is {e cancelled cooperatively} — it
    stops consuming CPU within a few hundred loop iterations, frees its
    slot, and the client gets a [deadline] response carrying the
    evaluation's best partial output. Cancelled requests are counted by
    [pb_net_cancelled_total].

    The server-level [\healthz] command is answered with the health JSON
    {e before} admission, so a saturated or draining server still
    reports its state over the query wire — the shard router's health
    aggregation relies on this.

    Shutdown: {!request_stop} (async-signal-safe: it flips an atomic and
    writes one byte to the event loop's self-pipe) stops accepting and
    makes every connection close after the request it is currently
    serving — in-flight requests drain, idle connections close at once.
    {!join} blocks until the drain completes. The event loop blocks
    until a descriptor is ready or the self-pipe is written, so an idle
    server does not wake up at all. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** TCP port; [0] picks an ephemeral port (see {!port}) *)
  max_connections : int;  (** live-session cap; excess get [busy] *)
  max_inflight : int;
      (** requests evaluating concurrently (the worker-pool size);
          clamped to >= 1 *)
  max_queue : int;
      (** requests queued waiting for an in-flight slot; a request
          arriving when the queue is full is answered [busy]; clamped to
          >= 0 *)
  default_deadline : float option;
      (** applied to requests that carry no deadline; [None] = unlimited *)
  plan_cache_capacity : int;
      (** entries in the shared prepared-plan cache; [0] disables caching
          (every request re-parses — the benchmark baseline) *)
  trace_capacity : int;
      (** completed request traces retained in
          {!Pb_obs.Trace_store.default} (FIFO eviction); [0] disables
          tracing entirely — requests evaluate without a span context or
          progress recorder, leaving span creation on its disabled fast
          path *)
}

val default_config : config
(** [127.0.0.1:7878], 64 connections, 64 in-flight requests with a
    128-deep admission queue, no default deadline, 128 cached
    plans, 256 retained traces. *)

type t

type session_handler = gov:Pb_util.Gov.t -> string -> Pb_shell.Repl.reaction
(** One connection's session: maps an input line to its reaction under
    the request's governance token. The default factory wraps a private
    {!Pb_shell.Repl} per connection; the shard router substitutes its
    fan-out session here and inherits the whole serving stack
    (framing, admission, deadlines, tracing, metrics) unchanged. *)

val start :
  ?config:config ->
  ?session_factory:(t -> session_handler) ->
  Pb_sql.Database.t ->
  t
(** Bind, listen, and spawn the event-loop thread; returns immediately.
    [session_factory] is called once per connection, lazily at its first
    request. Ignores [SIGPIPE] process-wide (a client hanging up
    mid-response must not kill the server). Raises [Unix.Unix_error] if
    the port is taken. *)

val port : t -> int
(** The actual bound port — useful with [config.port = 0]. *)

val http_handler : t -> string -> Pb_obs.Http.response option
(** Route table for the metrics endpoint ({!Pb_obs.Http.start}):
    [/metrics] answers the Prometheus text exposition of the default
    registry, [/healthz] answers a one-line JSON health summary
    (admission-queue depth and in-flight count against their limits,
    live connections against theirs, and a [status] of [ok],
    [saturated] or [draining]), [/traces] lists
    retained trace ids and [/traces/<id>] answers that trace's span tree
    and progress events as JSON. Anything else is [None] (404). *)

val request_stop : t -> unit
(** Begin graceful shutdown. Async-signal-safe; returns immediately. *)

val join : t -> unit
(** Block until the server has fully stopped: event loop exited after
    draining every connection, listen socket closed. Does {e not} itself
    initiate shutdown. Safe to call from several threads. The wait is
    interrupted by signals, so the handlers {!install_signal_handlers}
    sets run on the main thread while it is blocked here. *)

val shutdown : t -> unit
(** [request_stop] + [join]. Idempotent. *)

val install_signal_handlers : t -> unit
(** Route [SIGINT] and [SIGTERM] to {!request_stop}, so
    [start |> install_signal_handlers |> join] is a complete server
    main loop with graceful termination. *)

val with_server :
  ?config:config ->
  ?session_factory:(t -> session_handler) ->
  Pb_sql.Database.t ->
  (t -> 'a) ->
  'a
(** Run [f server] and always {!shutdown}, even on exceptions — the
    test harness's entry point. *)
