(** Candidate packages: multisets of rows of a candidate relation.

    A package is represented as a multiplicity vector over the {e
    candidate relation} — the input relation restricted to the rows that
    satisfy the query's base constraints (computed once by
    {!Semantics.candidates}). All evaluation strategies share this
    representation; [materialize] produces the result relation a user
    sees, with columns qualified by the package alias so SUCH THAT
    expressions like [SUM(P.calories)] resolve against it. *)

type t

val of_multiplicities : Pb_relation.Relation.t -> alias:string -> int array -> t
(** Raises [Invalid_argument] on negative multiplicities or length
    mismatch. *)

val of_indices : Pb_relation.Relation.t -> alias:string -> int list -> t
(** Multiset given as a list of candidate row indices (repetitions allowed). *)

val base : t -> Pb_relation.Relation.t
val multiplicity : t -> int -> int
val multiplicities : t -> int array
(** A copy. *)

val cardinality : t -> int
(** Total tuple count including repetitions. *)

val support : t -> int list
(** Candidate indices with multiplicity > 0, ascending. *)

val indices : t -> int list
(** Candidate indices with repetitions, ascending. *)

val materialize : t -> Pb_relation.Relation.t
(** Rows with repetitions, schema qualified by the package alias. *)

val sum_column : t -> string -> float
(** Multiplicity-weighted sum of a numeric column ([0.] for an empty
    package); raises [Failure] on unknown columns. *)

val to_string : ?max_rows:int -> t -> string
(** Table rendering plus a one-line cardinality footer. *)
