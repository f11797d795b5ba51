(** FROM/WHERE planning: predicate pushdown, index scans, hash joins.

    The planner decomposes the WHERE clause into conjuncts and

    + pushes single-table conjuncts below the join, using a declared
      {!Index} for sargable shapes ([col cmp constant],
      [col BETWEEN a AND b]);
    + joins relations left-to-right in FROM order, choosing a hash join
      whenever unconsumed equi-join conjuncts ([a.x = b.y]) link the next
      table to the accumulated prefix, and falling back to a nested-loop
      product otherwise;
    + applies every remaining conjunct as soon as its columns resolve in
      the accumulated schema, and the rest (e.g. uncorrelated-subquery
      predicates) at the end.

    Joining in FROM order keeps the output schema identical to the naive
    [product]-then-[filter] evaluation, so the two paths are
    interchangeable — the test suite checks them against each other, and
    the benchmark harness measures the difference (ablation A1).

    Note the §4.2 claim survives planning: the k-replacement
    neighbourhood query joins on {e inequalities}, which no index or hash
    join accelerates, so its cost still tracks the 2k-way product. *)

type compile_fn =
  Pb_relation.Schema.t -> Ast.expr -> Pb_relation.Value.t array -> Pb_relation.Value.t
(** Expression compilation (see {!Compile}): called once per (schema,
    expression) to obtain the per-row closure used inside scan filters,
    hash-join key evaluation and post-join filters — normally
    [Executor.compile db], which closes over the database for subquery
    predicates. *)

type stats = {
  pushed_predicates : int;  (** conjuncts applied below the top join *)
  index_scans : int;
  hash_joins : int;
  nested_products : int;
}

val execute :
  ?gov:Pb_util.Gov.t ->
  Database.t ->
  compile:compile_fn ->
  from:Ast.table_ref list ->
  where:Ast.expr option ->
  Pb_relation.Relation.t * stats
(** Fully filtered join result, schema in FROM order with each table's
    columns qualified by its alias (or table name). Raises
    {!Executor.Eval_error}-style [Failure]s through the compiled
    closures on unknown tables/columns.

    [gov] is polled (sampled, every 256 rows) inside every operator loop
    — scan filters, hash-join build/probe, nested-loop products, final
    filters — and a stop raises {!Pb_util.Gov.Interrupted}: a runaway
    cross join is abandoned within a few hundred rows of the deadline
    rather than materialized to completion. Products also meter their
    output through [pb_sql_product_rows_total] and the token's
    [Sql_rows] budget. *)

val naive :
  Database.t ->
  compile:compile_fn ->
  from:Ast.table_ref list ->
  where:Ast.expr option ->
  Pb_relation.Relation.t
(** Reference evaluation — Cartesian product then filter — used by tests
    and the planner-ablation benchmark. *)
