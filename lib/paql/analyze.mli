(** Static analysis of PaQL queries: classification of constraints and
    linearization of SUCH THAT formulas.

    The evaluation engine (pb_core) decides between solver-based and
    search-based strategies by asking this module whether the global
    constraints and the objective are {e linearizable}: expressible as
    Boolean combinations of comparisons between linear combinations of
    package aggregates and constants. COUNT and SUM are directly linear in
    the tuple-multiplicity variables; AVG(e) cmp c is linearized as
    SUM(e) - c·COUNT cmp 0 (plus COUNT ≥ 1); MIN/MAX comparisons become
    per-tuple restrictions or at-least-one-witness constraints. Anything
    else (subqueries, LIKE over aggregates, products of aggregates, ...)
    is reported as opaque, and the engine falls back to validator-driven
    search — mirroring the paper's observation that "solvers cannot
    usually handle non-linear global constraints; hence evaluating such
    queries requires different methods" (§5). *)

type cmp = Le | Ge | Lt | Gt

type term = Count_term | Sum_term of Pb_sql.Ast.expr
(** [Sum_term e]: Σ over package tuples of the per-tuple value of [e]. *)

type atom =
  | Linear of { terms : (float * term) list; cmp : cmp; rhs : float }
  | Avg_atom of { arg : Pb_sql.Ast.expr; cmp : cmp; rhs : float }
  | Extremum of {
      maximum : bool;  (** true = MAX, false = MIN *)
      arg : Pb_sql.Ast.expr;
      cmp : cmp;
      rhs : float;
    }

type formula =
  | True
  | False
  | Atom of atom
  | And of formula list
  | Or of formula list

val cmp_to_string : cmp -> string

val eval_cmp : cmp -> float -> float -> bool
(** [eval_cmp c lhs rhs] applies the comparison. *)

val linearize : Pb_sql.Ast.expr -> (formula, string) result
(** Linearize a SUCH THAT expression; NOT is pushed onto atoms (flipping
    comparisons), BETWEEN and = expand to conjunctions, <> to a
    disjunction. The [Error] carries the first non-linearizable fragment. *)

val linearize_objective :
  Pb_sql.Ast.expr -> ((float * term) list, string) result
(** Objectives must be a linear combination of COUNT/SUM aggregates. *)

val validate_query : Ast.t -> (unit, string) result
(** Both checks. *)

val aggregate_arguments : Ast.t -> Pb_sql.Ast.expr list
(** The distinct aggregate argument expressions (the [e] of SUM(e),
    AVG(e), MIN(e), MAX(e)) appearing in SUCH THAT and the objective, in
    first-appearance order (SUCH THAT first). These are the attributes a
    package's global constraints actually depend on — the partitioning
    key of the SketchRefine strategy: tuples that agree on all of them
    are interchangeable for every global constraint. COUNT contributes
    nothing (it is attribute-free). *)
