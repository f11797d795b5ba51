(** One attribute of a columnar table over its distinct rows, in a typed
    unboxed layout: [Bigarray] int/float vectors, a byte vector for
    booleans, dictionary-encoded strings, or a boxed [Mixed] fallback for
    columns whose cells mix value constructors. Nulls live in an optional
    byte-per-row side map so the data arrays stay dense. *)

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type like_memo

type t =
  | Ints of { data : ints; nulls : Bytes.t option }
  | Floats of { data : floats; nulls : Bytes.t option }
  | Bools of { data : Bytes.t; nulls : Bytes.t option }
  | Strs of { dict : string array; codes : int array; memo : like_memo }
  | Mixed of Pb_relation.Value.t array

val of_values : Pb_relation.Value.t array -> t
(** Choose the layout from the values present (not the declared type):
    any constructor mix falls back to [Mixed] so reconstruction is always
    exact. Dictionary codes are assigned in first-occurrence order. *)

val get : t -> int -> Pb_relation.Value.t
(** Exact reconstruction of the stored value (including the Int/Float
    distinction). *)

val is_null : Bytes.t option -> int -> bool
(** Read a null side map ([None] = no nulls). *)

val like_dict : t -> key:string -> (string array -> bool array) -> bool array
(** Memoized per-dictionary-entry computation (used for LIKE): runs [f]
    over the dictionary once per distinct [key] and caches the result.
    Thread-safe. Raises [Invalid_argument] on non-[Strs] columns. *)

val bytes : t -> int
(** Estimated resident size in bytes. *)
