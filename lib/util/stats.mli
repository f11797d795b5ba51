(** Small numeric helpers shared by the engine and the benchmark harness. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val median : float list -> float
(** Median (average of middle pair for even lengths); 0 on empty. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [0,100], nearest-rank; 0 on empty. *)

val minimum : float list -> float
val maximum : float list -> float

val log_binomial : int -> int -> float
(** [log_binomial n k] = ln C(n,k), computed via lgamma; neg_infinity when
    the coefficient is zero. *)

val log_sum_exp : float list -> float
(** Numerically stable ln(Σ exp xi). *)

val binomial_range_log : int -> int -> int -> float
(** [binomial_range_log n l u] = ln Σ_{c=l..u} C(n,c), clamping [l,u] to
    [0,n]; neg_infinity when the range is empty. Used to report the §4.1
    search-space size after cardinality pruning without overflow. *)

val timeit : (unit -> 'a) -> 'a * float
(** [timeit f] runs [f ()] and also returns the elapsed wall time in
    seconds. *)
