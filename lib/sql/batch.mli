(** Vectorized expression kernels over columnar chunks.

    [compile schema tbl e] returns a kernel evaluating [e] over runs of
    consecutive distinct rows of [tbl] ([schema] is the possibly-qualified
    view of the table's schema — column positions must align with the
    table's columns). Compilation is all-or-nothing: it returns [None] for
    any expression whose vectorized evaluation could diverge from the row
    engine (subqueries, CASE, boxed columns, mixed-kind comparisons,
    non-literal IN lists, unknown columns or functions), and a kernel that
    does compile never raises — the caller falls back to the row engine on
    [None].

    Numerics run in 64-bit floats (exact for the integer ranges the row
    engine itself compares through the float image); [int_valued] tracks
    statically whether the row engine would produce [Value.Int] results,
    mirroring its dynamic all-int checks in SUM/MIN/MAX. *)

val chunk : int
(** Suggested rows-per-chunk for driving kernels (1024). *)

type vec =
  | Num of float array * Bytes.t option  (** values; side-map byte 1 = NULL *)
  | B3 of Bytes.t  (** three-valued logic: 0 false / 1 true / 2 null *)
  | Sv of string array * int array  (** dictionary, codes; code -1 = NULL *)

type kind = K_num | K_str | K_bool

type t = {
  kind : kind;
  int_valued : bool;
  run : lo:int -> len:int -> vec;
}

val compile : Pb_relation.Schema.t -> Pb_store.Table.t -> Ast.expr -> t option

val as_num : vec -> float array * Bytes.t option
val as_b3 : vec -> Bytes.t
val as_sv : vec -> string array * int array

val null_at : Bytes.t option -> int -> bool
