(** Columnar fast paths over {!Pb_store.Table} images, driven by the
    {!Batch} kernels. Every entry point either answers the statement
    bit-identically to the row engine — values, Int/Float tags, and row
    order included — or returns [None], in which case the caller runs the
    row path. All entry points return [None] immediately when the storage
    mode ({!Pb_store.Mode}) is [Row]. *)

type bail =
  | Join  (** FROM names more than one table *)
  | Distinct
  | Having
  | Index  (** a declared index chooses the row path's access method *)
  | Order  (** an ORDER BY key is not an output column *)
  | Predicate  (** a WHERE/DML/base predicate is not a boolean kernel *)
  | Group_key  (** a GROUP BY key is not a plain column *)
  | Item  (** a select item or aggregate has no exact kernel *)
  | Missing_table

val bail : bail -> 'a option
(** Count one fall-back to the row evaluator under its reason's counter
    [pb_store_bail_<reason>_total] (e.g. [pb_store_bail_predicate_total])
    and return [None]. Row storage mode is not counted: no image exists
    to fall back from. *)

val bool_kernel :
  Pb_relation.Schema.t -> Pb_store.Table.t -> Ast.expr -> Batch.t option
(** [Batch.compile] restricted to boolean results (predicates). *)

val selection :
  ?gov:Pb_util.Gov.t -> Pb_store.Table.t -> Batch.t -> Bytes.t
(** Evaluate a boolean kernel over the whole table: one byte per distinct
    row, 1 where the predicate is true (exported for the PaQL layer's
    candidate generation). *)

val try_select :
  ?gov:Pb_util.Gov.t ->
  Database.t ->
  Ast.select ->
  Pb_relation.Relation.t option
(** End-to-end evaluation of a single-table SELECT block (WHERE,
    projection, GROUP BY + aggregates, ORDER BY over output columns,
    OFFSET/LIMIT). Bails on joins, DISTINCT, HAVING, declared indexes,
    subqueries, and anything the kernels can't reproduce exactly. The
    caller still owns result-side accounting (governance spend, row
    counters, trace counts). *)

val scan :
  ?gov:Pb_util.Gov.t ->
  Database.t ->
  name:string ->
  Pb_relation.Relation.t ->
  Ast.expr list ->
  Pb_relation.Relation.t option
(** Base-table scan for the planner: apply the pushed-down conjuncts as
    one fused selection vector over the columnar image and gather the
    surviving rows of [rel] in original order (the stored row arrays
    themselves, not copies). [rel] is the (possibly renamed)
    snapshot being scanned; [None] when any conjunct fails to compile,
    the conjunct list is empty, or the table has declared indexes. *)

val delete_keep :
  ?gov:Pb_util.Gov.t ->
  Database.t ->
  name:string ->
  Pb_relation.Relation.t ->
  Ast.expr ->
  (Pb_relation.Relation.t * int) option
(** DELETE predicate evaluation: the kept relation (the stored row
    arrays of [rel], in original order) and the number of deleted rows. *)

val update_mask :
  ?gov:Pb_util.Gov.t ->
  Database.t ->
  name:string ->
  Pb_relation.Relation.t ->
  Ast.expr ->
  Bytes.t option
(** UPDATE predicate evaluation: a byte per original row position, 1
    where the WHERE clause is true. *)
