(** Adaptive exploration (§3.3).

    "PACKAGEBUILDER initially presents a sample package that satisfies a
    few basic constraints. Users can then select good tuples within the
    sample, and request a new sample that replaces the unselected tuples.
    Users can repeat this process until they reach the ideal package."

    A session tracks the current sample and the set of packages already
    shown; resampling pins the kept tuples and asks the solver (or, for
    non-linearizable queries, randomized repair) for a {e different}
    valid completion, excluding everything seen so far with no-good
    cuts. *)

type t

val start : ?seed:int -> Pb_sql.Database.t -> Pb_paql.Ast.t -> (t, string) result
(** Evaluate the query for the initial sample; [Error] when the query has
    no valid package. *)

val current : t -> Pb_paql.Package.t

val keep_and_resample : t -> keep:int list -> t * [ `Fresh | `Exhausted ]
(** [keep] lists candidate indices (from the current sample's support) the
    user liked; every kept tuple appears with at least its current
    multiplicity in the new sample. [`Exhausted] means no unseen valid
    package extends the kept tuples — the current sample is returned
    unchanged (its tuples are the user's best option). *)

val infer_constraints : t -> keep:int list -> Suggest.suggestion list
(** "PACKAGEBUILDER uses these selections ... to identify additional
    package constraints": categorical attributes shared by every kept
    tuple become suggested base constraints, and tight numeric ranges
    across kept tuples become suggested per-tuple bounds. *)

val simulate :
  ?seed:int ->
  ?max_rounds:int ->
  Pb_sql.Database.t ->
  Pb_paql.Ast.t ->
  target:int list ->
  (int * bool) option
(** Drive a session with a simulated user whose ideal package is the
    candidate-index set [target]: each round the user keeps exactly the
    tuples belonging to the target. Returns [Some (rounds, converged)]
    where [converged] means the sample's support became a subset of the
    target within [max_rounds] (default 50); [None] when the query has no
    valid package at all. Used by experiment T7. *)
