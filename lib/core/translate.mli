(** PaQL → integer linear program (the §4 solver path: "a PaQL query is
    translated into a linear program and then solved using existing
    constraint solvers").

    One integer decision variable per candidate tuple holds its package
    multiplicity (binary without REPEAT, [0, 1+k] with REPEAT k). The
    SUCH THAT formula maps to rows as follows:

    - a linear atom becomes one constraint whose coefficients are the
      precomputed per-tuple aggregate contributions;
    - AVG(e) cmp c becomes Σ (eᵢ - c)·xᵢ cmp 0 together with COUNT ≥ 1;
    - MIN(e) ≥ c (resp. MAX(e) ≤ c) zeroes out the variables of tuples
      violating the bound, plus COUNT ≥ 1;
    - MIN(e) ≤ c (resp. MAX(e) ≥ c) requires a witness:
      Σ_{i : eᵢ ≤ c} xᵢ ≥ 1;
    - disjunctions introduce one binary indicator per branch with
      Σ indicators ≥ 1, and every atom inside a branch is big-M-relaxed
      against its indicator (the big-M is computed per atom from the
      variable bounds, so the relaxation stays as tight as the data
      allows). Nested And/Or structures recurse with indicator linking.

    Strict comparisons are tightened by a small epsilon (1e-6); with
    integer-valued data this is exact.

    [build] raises [Failure] when the formula or the objective is not
    linearizable — callers check {!linearizable} first.

    This module is the one place PaQL rows become solver models: besides
    [build] it turns the compiled formula into dense rows
    ({!rows_of_formula}) and builds models over an explicit column set
    ({!of_columns}) — {!Sketch_refine}'s sketches, refine legs and LP
    front all come from there — and it adds the binary no-good cut
    ({!exclude}) that ranked enumeration and resampling use. *)

type t = {
  model : Pb_lp.Model.t;
  vars : int array;  (** vars.(i) = model variable of candidate tuple i *)
}

val linearizable : Coeffs.t -> bool
(** The formula compiled and the objective, if any, is linear: what
    {!build} needs. *)

val build : Coeffs.t -> t
(** Model with multiplicity variables, all constraint rows, and the
    (possibly zero) objective. *)

val package_of_solution : Coeffs.t -> t -> float array -> Pb_paql.Package.t
(** Round the solver point's tuple variables to a package (indicator
    variables are ignored). *)

val exclude : t -> Pb_paql.Package.t -> unit
(** Add the binary no-good cut that excludes exactly [pkg]'s support
    over [t.vars] (indicator variables stay free, so two solver points
    differing only there cannot yield one package twice). Binary models
    only: the cut is exact for multiplicities in [{0, 1}]. *)

(** {1 Rows over an explicit column set} *)

type row = {
  coef : float array;  (** one coefficient per candidate tuple *)
  sense : Pb_lp.Model.sense;  (** [Le] or [Ge], never [Eq] *)
  rhs : float;  (** strict comparisons already tightened by 1e-6 *)
  nonempty : bool;
      (** the source aggregate rejects the empty package (SQL NULL
          semantics), so a model over these rows needs [Σ x ≥ 1] *)
}

val rows_of_formula : Coeffs.t -> (row list, string) result
(** A conjunction of linear and AVG atoms as rows, in formula order
    (AVG(e) cmp c becomes Σ (eᵢ - c)·xᵢ cmp 0; constant false one
    unsatisfiable row). [Error] names what is not a plain conjunction
    of such atoms: MIN/MAX, disjunction, or an opaque formula. *)

type objective = No_obj | Linear of Pb_paql.Ast.direction * float array

val objective_of_coeffs : Coeffs.t -> (objective, string) result
(** [Error] when the objective is present but not linear. *)

val of_columns :
  upper:float array ->
  coefs:float array array ->
  senses:Pb_lp.Model.sense array ->
  rhs:float array ->
  nonempty:bool ->
  objective ->
  Pb_lp.Model.t
(** Integer model over an explicit column set: variable [j] is column
    [j], in [[0, upper.(j)]]; row [r] is [Σ_j coefs.(r).(j)·x_j
    senses.(r) rhs.(r)] (dense coefficients over the columns); with
    [nonempty] a last row [Σ_j x_j ≥ 1] follows; the objective's
    coefficients are over the columns too ([No_obj]: maximize 0). *)
