(** Visual summary of the package space (§3.2, bottom of Figure 1).

    "The system analyzes the current query specification and selects two
    dimensions to visually layout the valid packages along. Users can use
    the visual summary to navigate through the available packages."

    The terminal rendering plots one glyph per discovered valid package on
    a character grid; the current package renders as ['@'] (its "position
    in the result space is highlighted"), other packages as ['o'] and
    overlapping ones as ['*']. When enumeration stops early, the footer
    shows "running — N packages found so far", matching the interface's
    incompleteness indicator. *)

type axis = {
  label : string;  (** e.g. "SUM(calories)" *)
  expr : Pb_sql.Ast.expr;  (** aggregate evaluated per package *)
}

type t = {
  axes : axis * axis;
  points : (float * float) list;  (** one point per package found *)
  current : (float * float) option;
  complete : bool;  (** false when the space was only partially explored *)
}

val build :
  ?max_packages:int ->
  ?current:Pb_paql.Package.t ->
  Pb_sql.Database.t ->
  Pb_paql.Ast.t ->
  t
(** Enumerate (up to [max_packages], default 2000) valid packages with
    pruned exhaustive search and project them on two display dimensions
    chosen from the query: the objective aggregate (when present) on the
    y-axis and the first SUM-style global constraint on the x-axis;
    falls back to COUNT and the first numeric aggregate mentioned
    anywhere, or COUNT twice for constraint-free queries. *)

val render : ?width:int -> ?height:int -> t -> string
(** ASCII scatter plot (default 64×16) with axis ranges in the footer. *)
