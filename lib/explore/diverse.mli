(** Diverse package results — the §5 "challenges" item the paper plans to
    explore ("devise techniques to present the user with the most diverse
    and potentially interesting packages"), implemented here as an
    extension.

    Diversity is measured as Jaccard distance between package supports;
    the selection is greedy max-min (farthest-point) seeded with the
    best-objective package, which guarantees a 2-approximation of the
    optimal max-min dispersion. *)

val jaccard_distance : Pb_paql.Package.t -> Pb_paql.Package.t -> float
(** 1 − |A∩B| / |A∪B| over supports; two empty packages are at distance
    0. *)

val diverse_packages :
  ?pool_size:int ->
  ?k:int ->
  Pb_sql.Database.t ->
  Pb_paql.Ast.t ->
  Pb_paql.Package.t list
(** Enumerate up to [pool_size] (default 2000) valid packages, then pick
    [k] (default 5) diverse ones, greedy max-min seeded with the pool's
    best package under the query's objective; fewer when the pool is
    smaller. *)
