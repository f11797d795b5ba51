(** Expression → closure compilation: the SQL engine's one row-at-a-time
    evaluator.

    [expr] makes one pass over an {!Ast.expr} and returns a
    [Value.t array -> Value.t] closure in which

    + every column reference is resolved to its integer offset once, at
      compile time (an unknown or ambiguous column compiles to a closure
      that raises [Schema.index_of_exn]'s [Failure] when first invoked,
      so zero-row inputs never raise);
    + binary operators, CASE ladders and scalar-function argument lists
      are pre-dispatched to direct value-level calls;
    + LIKE patterns are compiled to a token array once instead of being
      re-scanned per row;
    + subqueries ([IN (SELECT …)], [EXISTS]) call the supplied [select]
      callback, which the executor closes over its database.

    [group] runs the same structural compiler over a group of rows:
    aggregate nodes reduce the group, and other column references read
    its first row. HAVING, grouped select items, ORDER BY over groups
    and PaQL package validation all evaluate through it.

    Evaluation order, laziness (a CASE branch not taken is never
    evaluated, aggregates included), NULL propagation and error text
    are those of a tree-walking interpreter over the same AST; the test
    suite keeps one as the oracle and property-tests both closures
    against it. Closures are pure reads of their input and are safe to
    call from pool worker domains. *)

exception Eval_error of string

type like_pattern
(** A LIKE pattern pre-compiled to a token array. *)

val compile_like : string -> like_pattern
val like_match_compiled : like_pattern -> string -> bool
(** SQL LIKE with [%] (any sequence) and [_] (any one character). *)

val scalar_function :
  string -> Pb_relation.Value.t list -> Pb_relation.Value.t
(** Scalar function dispatch (abs, lower, upper, length, round, floor,
    ceil, coalesce, sqrt); raises {!Eval_error} on unknown names. *)

val binop_value :
  Ast.binop -> Pb_relation.Value.t -> Pb_relation.Value.t -> Pb_relation.Value.t

type select = Ast.select -> Pb_relation.Relation.t
(** Subquery evaluation for [IN (SELECT …)] and [EXISTS], normally
    [Executor.select] over the caller's database. Without one, those
    nodes raise {!Eval_error} (["IN subquery requires a database
    context"], ["EXISTS subquery requires a database context"]) when
    evaluated, not when compiled. *)

val expr :
  ?select:select ->
  Pb_relation.Schema.t ->
  Ast.expr ->
  Pb_relation.Value.t array ->
  Pb_relation.Value.t
(** Compile an expression against a schema. The first two applications
    perform the compilation; the resulting closure evaluates one row. *)

val predicate :
  ?select:select ->
  Pb_relation.Schema.t ->
  Ast.expr ->
  Pb_relation.Value.t array ->
  bool
(** [expr] composed with SQL truthiness ([Bool true] only). *)

val group :
  ?select:select ->
  Pb_relation.Schema.t ->
  Ast.expr ->
  Pb_relation.Value.t array array ->
  Pb_relation.Value.t
(** Compile an expression over a group of rows: [COUNT( * )] is the group
    size, [COUNT]/[SUM]/[AVG]/[MIN]/[MAX] evaluate their argument on
    every row (in order) and reduce the non-NULL values, and other
    column references read the first row (NULL for an empty group).
    An aggregate nested inside an aggregate's argument raises when a row
    is evaluated. *)

(** Memoized compilation for prepared plans: a mutex-guarded table keyed
    by (expression, schema columns), so re-executing a cached statement
    reuses its closures instead of re-resolving offsets. One memo belongs
    to one (statement, database) pair — the {!Plan_cache} invalidates the
    whole entry when the database's schema version moves. *)
module Memo : sig
  type t

  val create : unit -> t
  val size : t -> int

  val expr :
    t ->
    ?select:select ->
    Pb_relation.Schema.t ->
    Ast.expr ->
    Pb_relation.Value.t array ->
    Pb_relation.Value.t
  (** Like {!val:Compile.expr}, consulting the memo first. The [select]
      of the {e first} compilation is captured in the cached closure, so
      every caller of a given memo must supply an equivalent one (same
      database, and no per-request state such as a governance token). *)
end
