(** Package-query evaluation engine.

    Entry point for running a PaQL query against a database with one of
    the paper's strategies, or with the hybrid policy that "heuristically
    combines all of them" (§5):

    + derive §4.1 cardinality bounds — an empty interval proves
      infeasibility outright;
    + otherwise ask {!Cost_model} for per-strategy cost estimates and run
      the cheapest exact strategy when one is affordable (within 10× of
      the overall cheapest), else the cheapest heuristic;
    + when the chosen strategy exhausts its budget without a proof, fall
      back to heuristic local search and keep the better answer.

    The hybrid strategy takes this one path at every pool size: the
    chosen leg runs on the calling domain, and local search runs after
    it only when an exact leg stopped on its own budget without a proof
    (never after a cancellation or deadline stop). Results are
    bit-identical at any pool size.

    Every run is governed by a {!Pb_util.Gov.t} token carrying the
    deadline, cancellation flag and resource budgets; when the caller
    does not supply one, [Gov.create ()] provides the historical default
    budgets (200k branch-and-bound nodes, 5M brute-force candidates) with
    no deadline. *)

type strategy =
  | Brute_force of { use_pruning : bool }
  | Ilp
  | Local_search of Local_search.params
  | Sql_generation of Sql_generate.params
      (** §4 option (i): enumerate candidate packages with SQL self-joins;
          exact but only applicable for narrow cardinality bounds *)
  | Sketch_refine of Sketch_refine.params
      (** {!Sketch_refine.search}: a whole-relation LP front whose
          reduced ILP is proven optimal (or the query infeasible) by a
          weak-duality certificate, then — only without a proof —
          partition–sketch–refine (Brucato et al., SIGMOD'16): cluster
          the candidates over the constraint attributes, solve a small
          representative-level MILP, then refine one partition at a time
          with its real tuples — refine legs fan out on the domain pool
          under {!Pb_util.Gov.child} tokens. Scales to relations where a
          whole-relation MILP cannot even build its model; reports a
          sound optimality bound and gap when available, and the stats
          [front] ([certified], [infeasible] or [gave-way]) and
          [lp_bound] *)
  | Hybrid

val strategy_name : strategy -> string

type proof =
  | Optimal
      (** the returned package is proven optimal (or, for objective-less
          queries, proven valid) *)
  | Feasible
      (** best answer found within the budgets; no proof of optimality.
          [package = None] here means the strategy found nothing but
          infeasibility was not proven either *)
  | Infeasible  (** proven: no valid package exists *)
  | Cancelled
      (** the governance token was cancelled or its deadline passed;
          [package], if any, is the best incumbent at the stop.
          {e Anytime} strategies ([Sketch_refine]) instead report a
          governed stop that still has an incumbent in hand as
          [Feasible] — the partial answer is their serving contract —
          with a [("stopped", reason)] stat recording the early end;
          [Cancelled] then only appears when the stop left no package *)

val proof_to_string : proof -> string

type result = {
  package : Pb_paql.Package.t option;  (** None: no valid package found *)
  objective : float option;
  proof : proof;
  strategy_used : string;  (** strategy that produced the answer *)
  elapsed : float;
      (** wall-clock seconds of the strategy run itself, measured through
          its {!Pb_obs.Trace} span (for [Hybrid], both legs of a
          budget-exhausted fallback) *)
  stats : (string * string) list;
      (** per-strategy counters for display; each also feeds a typed
          [pb_engine_*] counter in {!Pb_obs.Metrics}. A governed stop
          adds a [("stopped", reason)] entry. *)
  progress : Pb_obs.Progress.event list;
      (** incumbent trajectory of this run, oldest first: one event per
          improvement of the best-known package, recorded by every
          strategy (branch-and-bound, brute force, local search,
          SketchRefine — legs on pool domains included). Deliberately
          not part of [stats]: events carry wall-clock times, while the
          report itself is bit-identical across runs and pool sizes. *)
}

val run :
  ?pool:Pb_par.Pool.t ->
  ?gov:Pb_util.Gov.t ->
  ?strategy:strategy ->
  Pb_sql.Database.t ->
  Pb_paql.Ast.t ->
  result
(** Parse-tree-in, package-out evaluation ([strategy] defaults to
    [Hybrid]). Every returned package has been re-checked against the
    {!Pb_paql.Semantics} oracle; a strategy whose answer fails the oracle
    is reported as having found nothing (with a ["verification"] stat),
    rather than returning a wrong package.

    [gov] governs the whole run — budgets, deadline and cancellation are
    observed inside every strategy loop and inside governed SQL
    evaluation. A cancellation or deadline stop yields
    [proof = Cancelled] with the best incumbent found so far; a plain
    budget stop yields [Feasible] (and, under [Hybrid], still triggers
    the local-search fallback, exactly as the un-governed engine did).

    [pool] (default {!Pb_par.Pool.get_default}, i.e. sized by
    [PB_DOMAINS]) parallelises brute-force enumeration and
    SketchRefine's refine legs; pool size 1 runs the sequential code
    paths unchanged.

    Candidate generation and coefficient extraction ({!Coeffs.make}) run
    inside the run's ["engine.run"] span, as a ["paql.coeffs"] span with
    a ["candidates"] counter. *)

val run_coeffs :
  ?pool:Pb_par.Pool.t ->
  ?gov:Pb_util.Gov.t ->
  ?strategy:strategy ->
  Pb_sql.Database.t ->
  Coeffs.t ->
  result
(** Same, reusing a prepared {!Coeffs.t} (benchmarks call this to keep
    candidate generation out of the measured region). *)

val next_packages :
  ?gov:Pb_util.Gov.t ->
  ?limit:int ->
  Pb_sql.Database.t ->
  Pb_paql.Ast.t ->
  Pb_paql.Package.t list
(** Successive packages, best first (§5 "retrieving more packages
    requires modifying and re-evaluating the query"): re-solves the ILP
    adding a no-good cut over the tuple variables after each answer, so
    indicator variables never spuriously differentiate packages. Falls
    back to pruned enumeration when the query is not linearizable.
    [limit] defaults to 5. [gov] is shared across the successive solves
    (so a node budget bounds their total, and cancellation stops the
    sequence). Requires a query without REPEAT for the ILP path (cuts
    are binary); REPEAT queries use the enumeration path. *)
