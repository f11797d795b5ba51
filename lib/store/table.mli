(** A relation stored column-wise with duplicate tuples collapsed into a
    multiplicity column. Reconstruction ({!get_row} through {!order}) is
    exact — values, Int/Float tags, and original row order all survive the
    round trip, which is what lets the columnar engine stay bit-identical
    to the row engine. *)

type t

val of_relation : Pb_relation.Relation.t -> t

val total : t -> int
(** Original (expanded) row count. *)

val distinct : t -> int
(** Distinct row count; kernels iterate over this many rows. *)

val multiplicity : t -> int -> int
(** Copies of distinct row [id] in the original relation. *)

val order : t -> int array option
(** Original position -> distinct row id; [None] when the relation had no
    duplicates (identity mapping, multiplicities all 1). *)

val compressed : t -> bool
(** [order t <> None]. *)

val col : t -> int -> Column.t

val get_row : t -> int -> Pb_relation.Value.t array
(** Materialize distinct row [id]. *)

val bytes : t -> int
(** Resident-size estimate, fixed at build time. *)

val add_resident : int -> unit
(** Adjust the global [pb_store_bytes_resident] gauge (catalogs call this
    when caching / evicting columnar tables; negative to release). *)

val tick_chunks : int -> unit
(** Bump the [pb_store_chunks_scanned_total] counter. *)
