(** Ordered secondary indexes.

    An index is a (key, row-position) table sorted by key with binary
    search for point and range lookups — the moral equivalent of a B-tree
    for an in-memory, read-mostly store. The planner uses indexes to
    answer sargable base predicates ([col = v], [col < v],
    [col BETWEEN a AND b]) without scanning.

    NULL keys are excluded: SQL comparisons with NULL are never true, so
    an index scan and a full scan agree. *)

type t

val build : Pb_relation.Relation.t -> string -> t
(** [build rel col] indexes column [col]; raises [Failure] on unknown
    columns. *)

type bound = Pb_relation.Value.t * bool
(** Key and whether the bound is inclusive. *)

val range : ?lo:bound -> ?hi:bound -> t -> int list
(** Row positions with key within the bounds (either side may be open),
    in ascending key order. *)
