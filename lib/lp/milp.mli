(** Branch-and-bound mixed-integer solver over {!Simplex}.

    Depth-first search with best-bound tie-breaking, most-fractional
    branching, an LP-rounding primal heuristic to obtain early incumbents,
    warm-started node relaxations, and resource governance through {!Pb_util.Gov}: one token poll per
    node pop, so a cancellation, deadline, or node-budget stop returns
    the best incumbent found so far as [Feasible]. This is the
    "state-of-the-art constraint optimization solver" role of §4 — exact
    on the instance sizes the experiments use.

    The root relaxation is solved cold ({!Simplex.start}); every other
    node re-solves on the same working tableau with the bounded dual
    simplex ({!Simplex.resolve}). A node carries its parent's basis
    snapshot, not a tableau: the child popped right after its parent
    re-solves in place, and a backtracked node first refactors the
    snapshot. The [milp.solve] span counts [lp_warm], [lp_refactors] and
    [lp_cold_fallbacks]. *)

type status =
  | Optimal         (** proven optimal integer solution *)
  | Feasible
      (** stopped early (node budget, deadline, or cancellation via the
          governance token); best incumbent returned *)
  | Infeasible
  | Unbounded

type solution = {
  status : status;
  x : float array;        (** incumbent (integral) point, model order *)
  objective : float;      (** original-sense objective at [x] *)
  nodes : int;            (** branch-and-bound nodes explored *)
  lp_iterations : int;    (** total simplex pivots *)
}

type node_order =
  | Dfs  (** depth-first (stack); low memory, good with strong incumbents *)
  | Best_bound
      (** always expand the frontier node with the best parent relaxation
          bound (the most recently created among equals), kept in a
          binary heap; typically fewer nodes, and it reaches packages at
          the relaxation bound sooner *)

val solve :
  ?gov:Pb_util.Gov.t ->
  ?eps:float ->
  ?node_order:node_order ->
  Model.t ->
  solution
(** [solve model] finds an optimal integral assignment. [gov] governs
    the search — its [Milp_nodes] budget replaces the old ad-hoc
    [max_nodes], its deadline the old [time_limit], and cancelling it
    stops the solve at the next node pop; all three return the best
    incumbent as {!Feasible}. When omitted, a private
    [Pb_util.Gov.create ()] supplies the historical default of 200_000
    nodes and no deadline. [eps] is the integrality tolerance (default
    1e-6); [node_order] defaults to {!Dfs}. The model's variable bounds
    are mutated during the search and restored before returning. *)
