(** Heuristic local search (§4.2).

    The neighbourhood of a package P0 is the set of k-tuple replacements.
    As in the paper, the candidate replacements are generated by a single
    SQL query — a selection over the Cartesian product of P0 (k copies)
    and the candidate relation (k copies), i.e. a 2k-way join — issued
    against the pb_sql engine. The WHERE clause rewrites each linear
    global constraint into its delta form: for the current aggregate value
    S and an atom Σ ≤ rhs, it keeps pairs with
    [S - out.a + in.a <= rhs] (the paper's
    [3000 - P0.calories + R.calories <= 2500] example, generalized to one
    precomputed column per atom). Non-linear atoms are over-approximated
    by TRUE in SQL and every returned move is re-validated with the
    compiled checker, so unsound moves are filtered, never applied.

    The driver performs multi-start hill climbing: a random package of a
    cardinality drawn from the §4.1 pruning bounds, a repair phase that
    greedily reduces constraint violation (replacements plus add/remove
    moves to change cardinality, which the paper notes the query can be
    "modified to explore ... in a straightforward way"), then an
    improvement phase that applies the best objective-improving valid
    replacement until a local optimum. As with any heuristic there is no
    completeness guarantee; experiment T4 measures the optimality gap
    against the exact ILP. *)

type params = {
  seed : int;
  restarts : int;  (** independent random starts (default 3) *)
  max_rounds : int;  (** move applications per phase per start (default 200) *)
  replacement_k : int;  (** neighbourhood size, 1..3 (default 1) *)
  sample_cap : int;
      (** at most this many (out, in) pairs are scored per repair round
          (default 4096) to keep rounds cheap on large inputs *)
}

val default_params : params

type stats = {
  rounds : int;  (** total moves applied *)
  sql_queries : int;
  pairs_examined : int;  (** neighbourhood entries scored *)
  restarts_used : int;
}

type outcome = {
  best : Pb_paql.Package.t option;
  best_objective : float option;
  stats : stats;
}

val search :
  ?params:params ->
  ?gov:Pb_util.Gov.t ->
  Pb_sql.Database.t ->
  Coeffs.t ->
  outcome
(** [gov] is polled between restarts, between hill-climbing rounds,
    every 256 scored moves within a round, and inside the neighbourhood
    SQL query; once it reports a stop —
    cancellation, deadline, or an exhausted [Ls_restarts] budget, the
    last checked only at restart boundaries — the search stops early and
    returns its best-so-far, so a cancelled request or a passed deadline
    frees the domain within a fraction of a round. A token that never
    stops leaves the search bit-identical to one without. *)

val sql_replacements :
  ?gov:Pb_util.Gov.t ->
  Pb_sql.Database.t ->
  Coeffs.t ->
  Pb_paql.Package.t ->
  k:int ->
  (int list * int list) list * string
(** [sql_replacements db coeffs pkg ~k] builds the 2k-way-join
    neighbourhood query for the current package, executes it, and returns
    the validated moves as (candidate indices leaving, candidate indices
    entering) plus the SQL text issued (shown by the shell's
    [\explain analyze] and exercised directly by experiment T3). The
    temporary tables (named [__pb_p0] and [__pb_cand]) carry every
    per-tuple value the query needs, so they are installed in a private
    scratch database and the query runs there — [db] is never written, allowing the hybrid
    strategy to run local search concurrently with strategies reading
    [db]. Requires [1 <= k <= 3] and a package of cardinality >= k. *)
