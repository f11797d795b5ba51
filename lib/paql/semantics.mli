(** Reference semantics of PaQL: candidate generation, package validation
    and objective evaluation.

    Validation evaluates the SUCH THAT clause with SQL aggregate semantics
    by treating the whole package as a single group — exactly how the
    paper's system "uses SQL statements to generate and validate candidate
    packages" (§4 option i). Every evaluation strategy in pb_core is
    checked against this oracle in the test suite. *)

val candidates : Pb_sql.Database.t -> Ast.t -> Pb_relation.Relation.t
(** Input relation restricted to rows satisfying the base constraints,
    with the schema qualified by the input alias. Row order (hence
    candidate indices) follows the stored relation, and the candidate
    rows are the stored relation's own row arrays (shared, never copied,
    in both storage modes), so they must not be mutated. Raises
    [Failure] if the input table does not exist. Under columnar storage
    the base predicate runs as a batch kernel when it compiles; the
    result is identical either way. *)

type batch = {
  table : Pb_store.Table.t;
  schema : Pb_relation.Schema.t;  (** input-alias-qualified *)
  positions : int array;  (** candidate index -> distinct row id *)
  rows : Pb_relation.Value.t array array;
      (** candidate index -> the stored relation's row (shared) *)
}
(** Columnar view of the candidate set: candidate [i] is distinct row
    [positions.(i)] of [table] (duplicates repeat the id), and its row is
    [rows.(i)]. When [table] is multiplicity-compressed, stored row [j]
    has distinct id [ord.(j)] for [Table.order table = Some ord] (the
    identity otherwise), and [rows.(i)] is the stored row at the
    original index [j] that selected it, not a row rebuilt from id
    [positions.(i)]. *)

val candidates_batch : Pb_sql.Database.t -> Ast.t -> batch option
(** Columnar candidate generation: the base predicate runs as a batch
    kernel over the image's distinct rows, then a counting pass and a
    filling pass over the stored rows gather the hits in row order. [None] when the storage mode is
    [Row], the input table is missing, or the base predicate doesn't
    compile to a batch kernel. *)

val batch_candidates : batch -> Pb_relation.Relation.t
(** The candidate relation over the batch's gathered rows, without
    copying them — exactly what {!candidates} returns. *)

val batch_values :
  batch -> schema:Pb_relation.Schema.t -> Pb_sql.Ast.expr -> float array option
(** Per-candidate float image of [expr] (the {!Pb_core} coefficient
    vectors), evaluated by batch kernels against [schema] (the
    package-alias-qualified view — column positions must align with the
    table). NULLs map to 0 like the row path; [None] when the expression
    doesn't compile or is string-valued (the row path owns its warning). *)

val empty_package : Pb_sql.Database.t -> Ast.t -> Package.t
(** Empty package over [candidates]. *)

val respects_multiplicity : Ast.t -> Package.t -> bool
(** Every multiplicity is at most {!Ast.max_multiplicity}. *)

val satisfies_global : ?db:Pb_sql.Database.t -> Ast.t -> Package.t -> bool
(** SUCH THAT holds (vacuously true when absent). NULL-valued constraints
    (e.g. SUM over an empty package) count as not satisfied, following SQL
    filter semantics. [db] is needed only for subqueries. *)

val is_valid : ?db:Pb_sql.Database.t -> Ast.t -> Package.t -> bool
(** Multiplicity bound + global constraints. Base constraints hold by
    construction for packages built over [candidates]. *)

val objective_value : ?db:Pb_sql.Database.t -> Ast.t -> Package.t -> float option
(** Value of the MAXIMIZE/MINIMIZE expression over the package; [None]
    when the query has no objective or the aggregate is NULL (empty
    package). *)

val better : Ast.direction -> float -> float -> bool
(** [better dir a b]: is objective [a] strictly preferable to [b]? *)

val compare_quality : Ast.t -> Package.t -> Package.t -> int
(** Order two {e valid} packages by the query's objective (positive when
    the first is better); 0 for objective-less queries. Uses SQL NULL
    semantics: a package with a NULL objective loses. *)
