(** In-memory relations: a schema plus an array of rows.

    This is the storage layer both for base data (loaded from CSV or
    generated by the workload library) and for intermediate SQL results.
    Rows are [Value.t array]s positionally aligned with the schema. *)

type t

val create : Schema.t -> Value.t array list -> t
(** Raises [Invalid_argument] if any row's arity mismatches the schema. *)

val of_rows_unchecked : Schema.t -> Value.t array array -> t
(** Wrap a row array as is: no copy and no arity check. Only for rows
    already validated against [schema], e.g. rows gathered from another
    relation with the same columns. The array and its rows must not be
    mutated afterwards. *)

val empty : Schema.t -> t
val schema : t -> Schema.t
val cardinality : t -> int
val rows : t -> Value.t array array
(** The underlying row store; callers must not mutate it. *)

val row : t -> int -> Value.t array
val to_list : t -> Value.t array list
val append : t -> Value.t array list -> t
(** Functional append of freshly validated rows. *)

val get : t -> int -> string -> Value.t
(** [get r i col] is row [i]'s value in column [col]. *)

val column_values : t -> string -> Value.t list

val filter : (Value.t array -> bool) -> t -> t
(** The rows satisfying the predicate, in order. The predicate runs once
    per row, in row order; the result shares the input's row arrays. *)

val map_rows : Schema.t -> (Value.t array -> Value.t array) -> t -> t
val project : t -> string list -> t
(** Keep the named columns, in the given order. *)

val rename : string -> t -> t
(** Qualify all columns with an alias (see {!Schema.qualify}). *)

val product : t -> t -> t
(** Cartesian product; schemas are concatenated. *)

val column_stats : t -> string -> (float * float * float) option
(** [column_stats r col] = [Some (min, max, sum)] over non-NULL numeric
    values of [col]; [None] if the column has no numeric values. The
    cardinality-pruning bounds of §4.1 are derived from these statistics,
    mirroring how PackageBuilder asks the DBMS for MIN/MAX aggregates. *)

val to_table : ?max_rows:int -> t -> string
