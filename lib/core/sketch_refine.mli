(** SketchRefine: partition–sketch–refine evaluation for PaQL queries
    over relations far beyond whole-relation MILP reach (Brucato et
    al., SIGMOD'16 "Scalable Package Queries in Relational Database
    Systems").

    Pipeline:

    + {b Partition} (offline, {!Partition}): recursive median splits
      over the constraint attributes ({!Pb_paql.Analyze.aggregate_arguments})
      group the [n] candidates into ~[sqrt n] (or [params.partitions])
      clusters; each cluster is summarised by one representative whose
      constraint coefficients are the cluster means, available in
      multiplicity up to [|cluster| · max_mult].
    + {b Sketch}: two small representative-level MILPs. The {e mean}
      sketch seeds refinement with a per-partition multiplicity vector.
      The {e bound} sketch replaces each partition's coefficient by its
      loosest member value (row-sense-wise min/max, objective-wise
      best), so every real package maps to a feasible bound-sketch
      point: its optimum is a {e sound} bound on the true optimum, and
      its infeasibility {e proves} the query infeasible.
    + {b Refine}: repeatedly pick the unrefined partitions carrying the
      most sketch mass (up to [params.fanout] per round), and for each
      solve a small MILP over that partition's {e real} tuples plus the
      other partitions' representatives, with already-refined tuples
      frozen as constants. Legs fan out on the {!Pb_par.Pool} under
      {!Pb_util.Gov.child} tokens; the deterministic merge commits the
      best leg (ties to the lowest partition), so results are
      bit-identical at any pool size. After every commit the remaining
      representative mass is greedily materialised into nearest-centroid
      real tuples and validated against the compiled constraints —
      the {e anytime incumbent} a governed stop returns.

    Proof semantics: [proven_optimal] is only claimed when it is sound —
    the bound sketch proved infeasibility, an objective-less query got a
    valid package, or the refined objective meets the sound bound (gap
    ≤ 1e-9). Otherwise the result is feasible-with-reported-gap:
    [bound]/[gap] tell the caller how far the answer can be from the
    true optimum ([|bound - objective| / max(1, |objective|)], the
    formula of {!Pb_obs.Progress.event.gap}).

    Applicability: conjunctions of linear atoms (COUNT/SUM comparisons,
    AVG folded to linear form). MIN/MAX atoms, disjunctions, opaque
    formulas and non-linear objectives report [applicable = false] with
    a reason, like {!Sql_generate}.

    {!search} puts an LP front before this pipeline (see there), which
    proves most answers optimal outright; the pipeline runs only when
    the front holds no proof.

    Determinism caveat: refine legs run under child tokens that share
    the family's budget meters, so when a budget or deadline fires {e
    mid-run} the stopping point depends on leg interleaving. Runs that
    finish within budget are bit-identical at any [PB_DOMAINS] for the
    same sequence of queries (the LP front's warm start, see {!search},
    carries state from one query to the next). *)

type params = {
  partitions : int option;
      (** partition count; [None] = ~sqrt of the candidate count *)
  fanout : int;  (** refine legs per round (deterministic, pool-independent) *)
}

val default_params : params
(** [{ partitions = None; fanout = 4 }] *)

type outcome = {
  best : Pb_paql.Package.t option;
  best_objective : float option;  (** compiled objective of [best] *)
  bound : float option;
      (** sound bound on the true optimum (bound sketch solved to
          proven optimality); [None] when unavailable *)
  gap : float option;  (** relative gap of [best_objective] vs [bound] *)
  proven_optimal : bool;
  applicable : bool;
  reason : string;  (** why not applicable; [""] when applicable *)
  partitions_built : int;
  refine_steps : int;  (** refine-leg MILPs solved *)
  refined_partitions : int;  (** partitions committed to real tuples *)
  stuck_partitions : int;
      (** partitions whose refine legs found no solution *)
  sketch_status : string;  (** mean-sketch MILP status *)
  partition_seconds : float;
  sketch_seconds : float;
  refine_seconds : float;
  front : string;
      (** what the LP front of {!search} did: ["certified"] (its reduced
          ILP is the whole relation's optimum), ["infeasible"] (it
          proved the query infeasible), ["gave-way"] (no proof; the
          pipeline ran after it), or ["-"] (not run: {!pipeline}, an
          empty relation, or a query the front does not apply to) *)
  lp_bound : float option;
      (** the front's Lagrangian bound [L(y)] on the true optimum, in the
          objective's own sense (rounded toward the optimum when every
          objective coefficient is an integer); [None] when the LP did
          not solve to optimality, the query has no objective, or the
          front did not run *)
  lp_pivots : int;  (** simplex pivots of the whole-relation LP *)
  lp_warm : bool;
      (** the whole-relation LP re-solved from the basis an earlier
          query of the same LP left, rather than cold *)
  kept_columns : int;  (** columns of the front's last reduced ILP *)
  front_seconds : float;
}

val pipeline :
  params:params ->
  pool:Pb_par.Pool.t ->
  gov:Pb_util.Gov.t ->
  Coeffs.t ->
  outcome
(** Partition, sketch and refine, as described above, with no LP front.
    Cooperative: polls [gov] at round boundaries and threads child
    tokens into every MILP, so cancellation, deadline and the
    [Milp_nodes] budget stop in-flight legs; all legs are joined before
    returning (no orphaned solves). On a governed stop the best
    incumbent found so far is returned. *)

val search :
  params:params ->
  pool:Pb_par.Pool.t ->
  gov:Pb_util.Gov.t ->
  Coeffs.t ->
  outcome
(** The strategy's entry point: an LP front, then {!pipeline} only when
    the front holds no proof.

    The front solves the whole-relation LP relaxation once
    ({!Pb_lp.Simplex.start_dense} over the compiled coefficient vectors,
    a row of ones added when the empty package is excluded), then the
    ILP (best-bound first) over the columns the final basis singles
    out — basic and at-upper ones plus the 300 at-lower ones with the
    best reduced costs. With the basis's duals [y], clamped to the row
    senses, every package is worth at most [L(y)], and one that uses an
    at-lower column [j] at most its cutoff [L(y) + min(d_j, 0)] (both
    rounded toward the optimum when every objective coefficient is an
    integer); so the reduced optimum [z] is the whole relation's once no
    excluded cutoff beats it. Otherwise the front re-solves once over
    every column whose cutoff beats [z] (they are the top ones by
    reduced cost; at most 4,800 at-lower columns), which certifies its
    optimum by construction. An infeasible LP proves the query infeasible; an
    infeasible reduced ILP grows the kept set four-fold until it is the
    whole relation, whose infeasibility is again a proof.
    Objective-less queries take any package the reduced ILP finds. The
    front runs on the calling domain, so it is deterministic at any
    pool size.

    The LP starts warm when it can. A small process-wide cache keeps
    the solved simplex state of recent fronts, keyed by the LP minus its
    right-hand sides: the coefficient rows (compared by content against
    the cache's own copy), the senses, the objective and its direction,
    and the [[0, max_mult]] box. A query whose LP matches re-solves from
    that basis ({!Pb_lp.Simplex.resolve_rhs}); a tweak that only moves
    right-hand sides typically takes a few dual pivots. A state is
    checked out for one query at a time, and the cache holds at most 4
    states and 256 MiB. A warm front proves what a cold one proves (the
    same LP status, and a certified reduced optimum is the relation's
    optimum either way), but the package may come from another optimal
    LP vertex, and where the LP's optimal duals are not unique the
    certificate's reach, and so whether the front certifies, can
    differ. Hits count in [pb_engine_lp_front_warm_total] and as the
    [warm]/[cold] counts of the [sketch-refine.lp] span.

    The front spends at most half of [gov]'s remaining [Milp_nodes]
    (a {!Pb_util.Gov.capped} child). Without a proof, and unless [gov]
    was cancelled or its deadline passed, {!pipeline} runs on what is
    left; the better of the two packages is returned (ties to the
    front's), and its gap is taken against the tighter of the front's
    bound and the bound sketch's. *)

val forget_warm_fronts : unit -> unit
(** Empty the warm LP front's cache: the next front of every LP solves
    cold. *)
