(** SQL execution over the in-memory catalog.

    The executor is deliberately a straightforward iterator pipeline
    (product → filter → group → project → sort → limit): PackageBuilder's
    §4.2 argument about k-replacement local search — that the neighbourhood
    query is "a selection over a Cartesian product" whose cost explodes as
    a 2k-way join — depends only on this complexity shape, which a fancier
    optimizer would obscure. *)

exception Eval_error of string

type result =
  | Rows of Pb_relation.Relation.t  (** SELECT result *)
  | Affected of int                 (** rows inserted/deleted/updated *)
  | Created                         (** DDL acknowledgement *)

val compile :
  ?gov:Pb_util.Gov.t ->
  Database.t ->
  Pb_relation.Schema.t ->
  Ast.expr ->
  Pb_relation.Value.t array ->
  Pb_relation.Value.t
(** The executor's row closure for an expression ({!Compile.expr}), with
    subqueries answered by {!select} over the database under [gov]: the
    [~compile] argument of {!Planner.execute} and {!Planner.naive}.
    Aggregate nodes raise {!Eval_error} when evaluated. *)

val eval_const : ?db:Database.t -> Ast.expr -> Pb_relation.Value.t
(** Evaluate a row-independent expression (literals/arithmetic). *)

val select :
  ?memo:Compile.Memo.t ->
  ?gov:Pb_util.Gov.t ->
  Database.t ->
  Ast.select ->
  Pb_relation.Relation.t
(** Run a SELECT. When [memo] is supplied (by the prepared-plan cache),
    compiled expression closures are reused across executions of the same
    statement instead of being rebuilt.

    [gov] is the request's governance token: it is polled (sampled)
    inside every planner and executor loop, and a stop raises
    {!Pb_util.Gov.Interrupted} — SQL has no useful partial result, so
    cancellation abandons the statement outright. One caveat: the
    subquery callback baked into {e memoized} compiled closures is
    deliberately gov-free (those closures are cached across requests by
    the plan cache, and a stale token must not cancel a later request),
    so subqueries reached through a cached plan run un-governed; the
    enclosing operator loops still poll. *)

val execute :
  ?memo:Compile.Memo.t -> ?gov:Pb_util.Gov.t -> Database.t -> Ast.statement -> result
val execute_sql : ?gov:Pb_util.Gov.t -> Database.t -> string -> result
(** Parse then execute a single statement. *)
