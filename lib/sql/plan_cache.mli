(** Prepared-plan LRU cache: normalized query text → (parsed statements,
    compiled-closure memo).

    Repeat traffic — the REPL's history replay, every [--loadgen]
    connection hammering the same workload — skips the lexer, parser and
    column resolution entirely on a hit: the cached {!Compile.Memo} hands
    the executor the same closures it built the first time.

    Entries are validated against {!Database.version}, the catalog's
    schema/DDL generation counter: a stale entry (table created/dropped,
    schema changed, index declared since prepare time) is silently dropped
    and re-prepared. Schema-preserving DML does not move the counter, so
    INSERT/DELETE/UPDATE keep the cache warm.

    One cache belongs to one database. The cache is mutex-guarded and the
    memo inside each entry is itself thread-safe, so a single cache may be
    shared by every server connection (the server does exactly that).

    Counters [pb_sql_plan_cache_hits_total] / [pb_sql_plan_cache_misses_total]
    are registered on the default metrics registry; the prepare step runs
    under a [sql.prepare] trace span (compilation itself under
    [sql.compile]). *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 128 entries; least-recently-used entries are
    evicted beyond it. [~capacity:0] disables caching (every lookup
    parses). Negative capacities are rejected
    with [Invalid_argument]. *)

val lookup :
  t ->
  Database.t ->
  parse:(string -> Ast.statement list) ->
  string ->
  Ast.statement list * Compile.Memo.t
(** The prepared form of a query text: cached when present and still
    valid, otherwise parsed via [parse], cached and returned. Parse errors
    propagate to the caller and are not cached. *)

val clear : t -> unit
