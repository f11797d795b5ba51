(** Deterministic pseudo-random number generation.

    All randomized components of PackageBuilder (workload generators,
    random starting packages for local search, simulated users in adaptive
    exploration) draw from this splitmix64-based generator so that every
    experiment is reproducible from a single integer seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator; equal seeds yield equal streams. *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n); requires [n > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in the inclusive range [lo, hi]. *)

val float : t -> float -> float
(** [float t x] is uniform in [0, x). *)

val bool : t -> bool
(** Fair coin flip. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Normal deviate via Box–Muller. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
