(** Dynamically-typed SQL values.

    Both the SQL substrate and PaQL evaluate expressions over these values
    with SQL-flavoured semantics: three-valued logic is approximated by
    treating NULL as absorbing for arithmetic and as "unknown = false" in
    filters, and integers and floats compare and combine numerically. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

type ty = T_bool | T_int | T_float | T_str

val ty_of : t -> ty option
(** Type of a non-NULL value; [None] for [Null]. *)

val ty_to_string : ty -> string

val is_null : t -> bool

val compare_values : t -> t -> int
(** Total order used by ORDER BY and index structures: NULL sorts first;
    numeric values compare numerically across Int/Float; distinct types
    otherwise order as bool < numeric < string. *)

val equal : t -> t -> bool
(** [compare_values a b = 0]. *)

module Key : Hashtbl.HashedType with type t = t list
(** Value lists compared by {!equal} (element-wise) and hashed
    consistently with it: [Int 3] and [Float 3.] are one key, as are
    [0.] and [-0.], and every NaN; [Int 1] and [Str "1"] are two. The
    key of hash joins, GROUP BY, DISTINCT and set operations. *)

module Key_tbl : Hashtbl.S with type key = t list

val float_repr : float -> string
(** The shortest of [%.15g], [%.16g] and [%.17g] that parses back to
    the same bits (["inf"], ["-inf"] and ["nan"] for non-finite
    values). Used where a float is written to be read back: persisted
    tables and SQL text. *)

val to_string : t -> string
(** Display form: NULL prints as the empty-marker ["NULL"], floats drop a
    trailing [.] when integral. *)

val to_float : t -> float option
(** Numeric view of Int/Float/Bool(as 0/1); [None] otherwise. *)

val to_int : t -> int option

val of_literal : string -> t
(** Best-effort parse used by the CSV loader: int, then float, then
    [true]/[false], then string; the empty string becomes [Null]. *)

(* Arithmetic and comparisons with NULL propagation. Raise
   [Type_error] on non-numeric operands. *)

exception Type_error of string

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t

val cmp_bool : (int -> bool) -> t -> t -> t
(** [cmp_bool test a b] is [Null] if either side is NULL, otherwise
    [Bool (test (compare_values a b))]; strings compare lexicographically,
    numbers numerically. *)

val logical_and : t -> t -> t
val logical_or : t -> t -> t
val logical_not : t -> t
(** Kleene three-valued logic over [Bool]/[Null]. *)

val truthy : t -> bool
(** Filter semantics: [Bool true] is true; NULL and everything else is
    false. *)
