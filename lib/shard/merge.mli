(** Distributed-aggregate planning for the shard router.

    [plan ~table q] decides whether the single-table SELECT [q] over the
    hash-partitioned [table] can be answered by shipping a {e partial}
    aggregation to every shard and merging the partials at the router,
    instead of pulling the shard's rows. When it can, the returned plan
    gives:

    - [partial]: the query each shard runs (in data mode) — the original
      FROM/WHERE, grouped by the original GROUP BY expressions shipped as
      [__g<i>] columns, with each distinct aggregate node shipped as a
      partial [__a<j>];
    - [final]: the query the router runs over the concatenated partials
      installed as table [scratch]. COUNT and COUNT(e) merge by SUM of
      the per-shard counts; SUM, MIN, MAX merge by themselves (SUM skips
      NULL partials, so a shard whose group has only NULLs contributes
      nothing — matching single-node NULL-skipping semantics). HAVING,
      ORDER BY, LIMIT and OFFSET run at the router, on merged values.
      Final items are aliased with the single-node inferred names, so
      headers match byte-for-byte.

    Soundness relies on hash partitioning being disjoint and complete:
    every base row is counted on exactly one shard. Because group keys
    ship by value, a group split across shards merges correctly.

    Returns [None] — the caller falls back to scan-pull — for anything
    whose merged value could differ from the single-node answer: AVG
    (per-shard AVG of partials is not the global AVG, and reconstructing
    it as SUM/COUNT would re-associate float division), DISTINCT,
    compound selects, subqueries, joins, Star items, group-representative
    column references (a bare column that is neither grouped nor
    aggregated reads "the group's first row", which depends on physical
    row order), duplicate output names, ORDER BY on output aliases.

    Float caveat, documented rather than hidden: a merged SUM over
    floats adds per-shard subtotals, re-associating the addition order;
    the result can differ from the single-node sum in the last ulps. *)

type plan = {
  partial : Pb_sql.Ast.select;  (** per-shard query (data mode) *)
  scratch : string;  (** router-side table name holding the partials *)
  final : Pb_sql.Ast.select;  (** merging query over [scratch] *)
}

val plan : table:string -> Pb_sql.Ast.select -> plan option
