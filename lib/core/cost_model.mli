(** Strategy cost model — the §5 challenge the paper leaves open:
    "Currently, PACKAGEBUILDER heuristically combines all of them
    [evaluation techniques]. However, a more principled approach to
    package query optimization could add several benefits."

    The model produces an estimated cost (abstract work units, roughly
    "candidate checks" / "simplex pivots") per applicable strategy, using
    the same quantities the §4 techniques expose: the §4.1 pruned
    search-space size for exhaustive search, the model dimensions and
    Boolean structure for the ILP, and the neighbourhood size for local
    search. {!Engine}'s hybrid policy picks the cheapest {e exact}
    strategy when one is affordable and otherwise the cheapest overall —
    replacing the paper's hard-coded heuristics with explicit estimates
    that EXPLAIN can display. *)

type estimate = {
  strategy_label : string;  (** as reported by {!Engine.report} *)
  applicable : bool;  (** false e.g. for ILP on non-linearizable queries *)
  exact : bool;  (** does the strategy prove optimality/infeasibility? *)
  cost : float;  (** estimated abstract work; [infinity] when hopeless *)
  note : string;  (** one-line human-readable rationale *)
}

val proven_infeasible : Coeffs.t -> bool
(** True when the §4.1 bounds are empty — every strategy may answer "no
    package" immediately. *)

val pick : Coeffs.t -> estimate
(** The hybrid policy's choice: the cheapest applicable exact strategy if
    its cost is within [exact_preference] (10×) of the overall cheapest,
    otherwise the overall cheapest applicable strategy. *)

val to_table : Coeffs.t -> string
(** Render the estimates as an ASCII table (used by the CLI's EXPLAIN). *)
