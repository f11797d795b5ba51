(** Constraint suggestion from interface gestures (§3.1).

    "As a user interacts with the template by highlighting elements in the
    sample package, PACKAGEBUILDER suggests constraints. For example, when
    the user selects a cell within the 'fats' column, the system proposes
    several constraints that would restrict the amount of fat in each
    meal, and objectives that would minimize the total amount of fat."

    Each suggestion carries the refined query, the PaQL fragment it adds,
    and a natural-language description, so a front end can show and apply
    them directly. *)

type highlight =
  | Cell of { row : int; column : string }
      (** one value inside the sample package (row index into the sample) *)
  | Column of string  (** a whole column *)
  | Row of int  (** a whole sample tuple *)

type kind = Base_constraint | Global_constraint | Objective

type suggestion = {
  kind : kind;
  paql_fragment : string;  (** e.g. ["r.fat <= 20"] or ["SUM(p.fat) <= 60"] *)
  description : string;  (** natural-language phrasing *)
  refined : Pb_paql.Ast.t;  (** the query with the suggestion applied *)
}

val suggest :
  Pb_paql.Ast.t -> sample:Pb_paql.Package.t -> highlight -> suggestion list
(** Suggestions for a gesture over the current sample package:

    - [Cell]: per-tuple bounds at the selected value (≤ v, ≥ v, = v for
      categorical values) as base constraints, plus total/average global
      bounds scaled from it, plus MIN/MAXIMIZE objectives on numeric
      columns;
    - [Column]: global SUM within ±10% of the sample's total, bounds on
      AVG at the sample's mean, and both objective directions;
    - [Row]: base constraints generalizing the tuple's categorical
      attributes (e.g. the cuisine of the highlighted meal).

    Suggestions that do not type-check against the sample's schema (e.g.
    SUM over a text column) are omitted. Raises [Failure] on an unknown
    column. *)

val apply_base : Pb_paql.Ast.t -> Pb_sql.Ast.expr -> Pb_paql.Ast.t
(** AND a predicate onto the WHERE clause. *)
