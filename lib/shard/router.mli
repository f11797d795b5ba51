(** Shared-nothing shard router.

    A router owns no base data: it speaks wire v2 {e both ways},
    accepting REPL sessions like a [pb_server] and fanning work out to a
    fixed, ordered set of shard servers (each started with
    [pb_server --shard i/N], so shard [i] holds exactly the rows with
    {!Hash.shard_of_row}[ = i]). The shard set is discovered once at
    startup by asking shard 0 for its table list; tables created through
    the router afterwards live in the router-local database only.

    Per-shard traffic flows over one pooled connection protected by a
    per-shard mutex, so the router's descriptor count is O(shards)
    regardless of client count; the trade-off — per-shard serialization
    of in-flight requests — is discussed in DESIGN.md. Every hop
    propagates the surrounding request's remaining deadline
    ({!Pb_util.Gov.remaining_time}) and trace id, so a trace started at
    a client is visible in each shard's [\traces] store, and a deadline
    set at the router cuts shard work short too.

    SQL semantics: the router mirrors the single-node REPL's rendering
    byte-for-byte. SELECTs whose sharded part admits a partial-aggregate
    plan ({!Merge.plan}) ship the partial to every shard in data mode
    and merge at the router; everything else falls back to pulling the
    referenced sharded tables whole ([SELECT *] per shard, concatenated
    in shard order) and executing locally. INSERT routes literal rows by
    {!Hash.shard_of_row} of the evaluated full row; DELETE / UPDATE /
    CREATE INDEX / DROP TABLE broadcast. Note that without an ORDER BY a
    merged or pulled SELECT may order rows differently than a single
    node would — the transcript-identity guarantee is for deterministic
    (ordered) output.

    PaQL: a query over a sharded input pulls the input table and runs
    {!Pb_core.Engine} under a [Sketch_refine] strategy with default
    parameters, rendering the result as the single-node shell does
    ({!Pb_shell.Repl.render_paql_result}). *)

type t

exception Shard_error of string
(** Transport failure or non-ok/non-deadline status from a shard;
    rendered in session output as ["shard error: ..."]. *)

val create :
  ?connect_timeout:float -> shards:(string * int) array -> Pb_sql.Database.t -> t
(** [create ~shards local] builds a router over the ordered shard
    endpoints (index in the array {e is} the shard id; it must match
    each server's [--shard i/N]). Blocks until shard 0 answers
    [\tables] (bounded retry, ~5 s), then serves. [local] holds
    router-only tables. [connect_timeout] bounds each shard connect. *)

val session_factory : t -> Pb_net.Server.t -> Pb_net.Server.session_handler
(** Plug into {!Pb_net.Server.start}'s [?session_factory]: sessions are
    stateless closures over the shared router, so any number of
    concurrent clients share the per-shard connection pool. *)

val handle : t -> gov:Pb_util.Gov.t -> string -> Pb_shell.Repl.reaction
(** One REPL input line (SQL script, PaQL query, or [\ ] command),
    rendered exactly like the single-node REPL. Never raises: errors
    become output (["sql error: ..."], ["paql error: ..."],
    ["shard error: ..."], ["cancelled: ..."]). *)

val health_json : t -> string
(** Aggregated health for the router's [/healthz] endpoint:
    [{"status":"ok"|"degraded","shards":[...]}] with one entry per
    shard, each probed over a fresh short-lived wire connection so a
    busy pooled connection cannot mask a live shard or vice versa. *)

val close : t -> unit
(** Drop pooled shard connections (idempotent). *)
