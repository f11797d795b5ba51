(** Simplex for linear programs with bounded variables: a cold two-phase
    primal solve, and a warm re-solve by bounded dual simplex for
    branch-and-bound.

    The solver keeps the tableau at [m] rows (one per constraint):
    variable bounds are handled by the bounded-variable pivot rules rather
    than by extra rows, which is what makes PaQL relaxations with
    thousands of binary columns and a handful of global constraints cheap
    to solve. Dantzig pricing with a Bland's-rule fallback guards against
    cycling; fixed columns ([lo = hi]) never enter the basis. *)

type status =
  | Optimal
  | Infeasible
  | Unbounded
  | Iteration_limit

type solution = {
  status : status;
  x : float array;       (** structural variable values (model order) *)
  objective : float;     (** original-sense objective value at [x] *)
  iterations : int;      (** total pivots across all phases *)
}

val solve : ?max_iterations:int -> Model.t -> solution
(** Solve the LP relaxation of [model] (integrality markers are ignored)
    cold, by the two-phase primal simplex from a slack/artificial basis.
    [max_iterations] defaults to [200 * (m + n) + 1000] per phase.

    Raises [Invalid_argument] if some variable has no finite bound on
    either side (the package translator never produces such variables). *)

(** {2 Warm re-solves}

    Branch-and-bound solves one model many times, changing only variable
    bounds between solves. A {!state} keeps one working tableau for the
    whole search: each re-solve starts from the basis the tableau holds
    (or from a {!basis} snapshot of an earlier one) and re-optimises with
    a bounded dual simplex, then certifies optimality with one primal
    phase-2 pass. A re-solve that hits the iteration limit or cannot
    refactor its snapshot falls back to the cold {!solve} path, in place. *)

type state
(** The working tableau of one model. The model's constraints and
    objective are read once, by {!start}; they must not change while the
    state is in use. Its variable bounds are read again at every solve. *)

type basis
(** A snapshot of a basis: the basic column indices plus which nonbasic
    columns sit at their upper bound. It holds no tableau. *)

val start : ?max_iterations:int -> Model.t -> state * solution
(** [start model] solves [model] cold, like {!solve}, and keeps the
    resulting tableau for later {!resolve}s. *)

val start_dense :
  ?max_iterations:int ->
  rows:float array array ->
  senses:Model.sense array ->
  rhs:float array ->
  maximize:bool ->
  objective:float array ->
  lower:float ->
  upper:float ->
  unit ->
  state * solution
(** Solve [max] (or [min]) [objective·x] subject to
    [rows.(i)·x senses.(i) rhs.(i)] and [lower <= x_j <= upper] for
    every column, cold, like {!start} on the equivalent model. The rows
    are used in place as the state's original coefficients: they are
    never copied or written, so a caller holding dense coefficient
    vectors (one per constraint, as PaQL's compiled atoms do) builds no
    per-term lists and no model. The state has no model behind it, so
    its bounds never move and {!resolve} only re-optimises in place.
    Raises [Invalid_argument] when the shapes disagree. *)

(** {2 Dual certificates} *)

type column = Basic | At_lower | At_upper

val column : state -> int -> column
(** Where structural column [j] sits in the basis the tableau holds. *)

type dual_bound = {
  prices : float array;
      (** the row prices [y = c_B·B^-1] of the basis, one per constraint
          in model order, clamped to the signs the row senses allow
          ([>= 0] on [<=] rows, [<= 0] on [>=] rows) *)
  reduced_costs : float array;
      (** [d_j = c_j - prices·A_j] per structural column, maximization
          form *)
  value : float;
      (** the Lagrangian bound
          [L(y) = y·b + Σ_j max(d_j·u_j, d_j·l_j)] under the current
          variable bounds, maximization form *)
}

val dual_bound : state -> dual_bound
(** The duals of the basis the tableau holds, in the maximization form
    of the objective (negated for [Minimize], like
    {!Model.objective_terms}), and what weak duality makes of them: every point inside
    the bounds that satisfies the rows has (maximization-form) objective
    at most [value]. A point with [x_j >= l_j + 1] is worth at most
    [value + min(d_j, 0)], which is what lets a search over a subset of
    the columns prove itself optimal for all of them. From an optimal
    basis [value] equals the LP optimum up to rounding. Raises
    [Invalid_argument] before any solve. *)

val resolve : ?from:basis -> state -> solution
(** Re-solve the state's model under its current variable bounds. Without
    [from], the live tableau re-optimises in place: a nonbasic column
    whose bound moved goes to its new bound, the basic values follow, and
    the dual simplex repairs the basic columns left outside their bounds.
    With [from], the tableau is first refactored to that basis (up to [m]
    Gauss-Jordan pivots on the original [A | I]; artificial columns in the
    snapshot are dropped). [iterations] counts refactor, dual and primal
    pivots, plus those of a cold fallback.

    The returned [x] is a buffer owned by the state: the next [resolve]
    overwrites it. *)

val basis : state -> basis
(** Snapshot the basis the tableau holds now. *)

type stats = {
  warm_solves : int;     (** {!resolve} calls *)
  refactors : int;       (** of those, started from a snapshot *)
  cold_fallbacks : int;  (** of those, finished by a cold solve *)
  dual_pivots : int;
}

val stats : state -> stats
(** Counts over the state's lifetime. The same events also feed the
    process-wide counters [pb_lp_warm_solves_total],
    [pb_lp_refactors_total], [pb_lp_cold_fallbacks_total] and
    [pb_lp_dual_pivots_total]. *)
