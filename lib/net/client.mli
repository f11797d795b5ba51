(** Blocking client for the {!Server} wire protocol: one TCP connection,
    strictly one in-flight request at a time. Used by the [pb_client]
    CLI, the bench load generator, and the tests.

    {!connect} performs the protocol-v2 handshake: it sends a hello
    frame and requires the server's hello carrying the same version; a
    mismatch (including a v1 server, which answers with an unversioned
    error) raises {!Net_error} naming both versions. A server refusing
    the connection outright (connection limit, shutdown) raises
    {!Rejected} instead, so callers can back off and retry.

    Transport-level failures (server gone, framing desync) raise
    {!Net_error}; request-level outcomes (busy, deadline, cancelled, bad
    request) come back as {!Protocol.response} values with a non-[Ok]
    status, and the connection stays usable after them. *)

type t

exception Net_error of string

exception Rejected of Protocol.status * string
(** The server refused the connection during the handshake (e.g. [busy]
    at the connection limit, [shutdown] while draining) — back off and
    retry rather than treating the stream as broken. *)

val connect : ?host:string -> ?connect_timeout:float -> port:int -> unit -> t
(** Connect to [host] (default 127.0.0.1; dotted quad or hostname) and
    negotiate the protocol version. Ignores [SIGPIPE] process-wide.
    [connect_timeout] bounds TCP connection establishment in seconds
    (via a non-blocking connect); without it a dead-but-routing address
    blocks for the kernel's own timeout. Raises [Unix.Unix_error] on
    refusal, {!Net_error} on version mismatch or connect timeout,
    {!Rejected} when the server turns the connection away. *)

val request :
  ?deadline:float -> ?trace:string -> ?data:bool -> t -> string -> Protocol.response
(** Send one REPL input line and wait for the response. [deadline] is a
    per-request wall-clock budget in seconds, enforced server-side by
    cooperative cancellation. [trace] is a client-generated trace id
    (32 lowercase hex characters, see {!Protocol.fresh_trace_id}); the
    server adopts it as the root of the request's span tree, which stays
    retrievable by that id afterwards ([\traces <id>]). [data] requests
    the machine-readable single-SQL-statement mode (the body then decodes
    with {!Wire_data.decode_result}); default false. Raises {!Net_error}
    if the connection dies. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, resuming short writes and retrying
    [EINTR]/[EAGAIN] (waiting for writability on a non-blocking fd).
    Exposed for the load generator's non-blocking connection pool and
    for tests. *)

val close : t -> unit

val with_connection :
  ?host:string -> ?connect_timeout:float -> port:int -> (t -> 'a) -> 'a
(** Connect, run, always close. *)
