(** Offline candidate partitioner for the SketchRefine strategy.

    Recursive median splitting over the constraint-attribute feature
    space (a kd-tree-style quantile grid, the "offline partitioning" of
    Brucato et al.'s SIGMOD'16 SketchRefine): starting from one group
    holding every candidate, repeatedly split the largest group along
    the feature dimension with the widest value spread at its median,
    until [target] groups exist or no group can be split further. A
    group whose members agree on every feature is never split, so
    all-identical inputs (or an empty feature list, e.g. a COUNT-only
    query) yield a single partition and the group count never exceeds
    the number of distinct feature vectors.

    Guarantees, relied on by the sketch models and locked down by
    [test/test_partition.ml]:

    - groups are disjoint, nonempty, and cover [0, n) exactly;
    - each group's index array is ascending, and groups are ordered by
      their smallest member, so the output is canonical;
    - centroids are per-feature means, hence always inside the group's
      per-feature [min, max] envelope;
    - the construction is purely sequential and deterministic: no
      randomness, no domain pool, so the same inputs give bit-identical
      partitions at any [PB_DOMAINS].

    Construction is O(n log k) comparisons for [k] groups (times the
    feature count for the spread scans): every group is a segment of one
    shared permutation of the candidates, a split is an in-place
    quickselect of the segment's lower half under the key [(value,
    index)], and splittable groups wait in a heap keyed by (size
    descending, smallest member ascending). The output is identical —
    groups, group order and centroid bits — to the straightforward
    sort-every-split formulation kept as the reference oracle in
    [test/test_partition.ml]. *)

type t = private {
  groups : int array array;
      (** [groups.(p)] = candidate indices of partition [p], ascending *)
  centroids : float array array;
      (** [centroids.(p).(d)] = mean of feature [d] over group [p],
          summed over the members in ascending order *)
  owner : int array;  (** [owner.(i)] = the partition holding candidate [i] *)
}

val build : target:int -> features:float array array -> n:int -> t
(** [build ~target ~features ~n] partitions candidates [0, n) using
    [features] (each a per-candidate value array of length [n]).
    [target] is clamped to [1, n]; [n = 0] yields zero groups. *)

val group_count : t -> int

val group_of : t -> int -> int
(** [group_of t i] = the partition holding candidate [i], in O(1).
    @raise Invalid_argument if [i] is outside [0, n). *)
