module Value = Pb_relation.Value
module Schema = Pb_relation.Schema
module Relation = Pb_relation.Relation
module Metrics = Pb_obs.Metrics

(* A table is its distinct rows, stored column-wise, plus a multiplicity
   per distinct row. Packages are multisets (REPEAT semantics), so
   collapsing duplicates is semantically free — but SQL results must stay
   bit-identical to the row engine, including row *order*, so [order]
   records, for every original position, which distinct row sat there.
   [None] means the relation had no duplicates and the mapping is the
   identity (the common case: it costs nothing). *)
type t = {
  schema : Schema.t;
  total : int;  (* original (expanded) row count *)
  nrows : int;  (* distinct row count *)
  cols : Column.t array;
  mult : int array;  (* per distinct row; all 1 when order = None *)
  order : int array option;  (* original position -> distinct row id *)
  bytes : int;  (* resident-size estimate, fixed at build time *)
}

let m_built =
  Metrics.counter ~help:"Columnar tables built from row relations"
    "pb_store_tables_built_total"

let m_chunks =
  Metrics.counter ~help:"Column chunks scanned by batch kernels"
    "pb_store_chunks_scanned_total"

let bytes_gauge =
  Metrics.gauge ~help:"Bytes resident in columnar tables cached by catalogs"
    "pb_store_bytes_resident"

let resident = Atomic.make 0

let add_resident n =
  let now = Atomic.fetch_and_add resident n + n in
  Metrics.set bytes_gauge (float_of_int (max 0 now))

let tick_chunks n = Metrics.incr ~by:n m_chunks

(* Rows collapse iff bit-identical: floats compare by IEEE bit pattern,
   so two copies of the same nan still collapse while 0. and -0. stay
   distinct — [to_relation] must replay exactly the value that was
   stored, sign bit included. Non-float cells use structural [compare]. *)
module Row_tbl = Hashtbl.Make (struct
  type t = Value.t array

  let equal_cell a b =
    match (a, b) with
    | Value.Float x, Value.Float y ->
        Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | _ -> Stdlib.compare a b = 0

  let equal a b =
    Array.length a = Array.length b
    &&
    let rec go i = i < 0 || (equal_cell a.(i) b.(i) && go (i - 1)) in
    go (Array.length a - 1)

  let hash row =
    Array.fold_left
      (fun acc cell ->
        let h =
          match cell with
          | Value.Float f -> Hashtbl.hash (Int64.bits_of_float f)
          | c -> Hashtbl.hash c
        in
        (acc * 31) + h)
      17 row
end)

let schema t = t.schema
let total t = t.total
let distinct t = t.nrows
let multiplicity t id = t.mult.(id)
let order t = t.order
let col t j = t.cols.(j)
let arity t = Array.length t.cols
let bytes t = t.bytes
let compressed t = t.order <> None

let of_relation rel =
  let rows = Relation.rows rel in
  let total = Array.length rows in
  let tbl = Row_tbl.create (max 16 total) in
  let order = Array.make total 0 in
  let distinct_rows = Array.make total [||] in
  let mult = Array.make total 0 in
  let next = ref 0 in
  Array.iteri
    (fun pos row ->
      let id =
        match Row_tbl.find_opt tbl row with
        | Some id -> id
        | None ->
            let id = !next in
            incr next;
            Row_tbl.add tbl row id;
            distinct_rows.(id) <- row;
            id
      in
      mult.(id) <- mult.(id) + 1;
      order.(pos) <- id)
    rows;
  let nrows = !next in
  let schema = Relation.schema rel in
  let ncols = Schema.arity schema in
  let cols =
    Array.init ncols (fun j ->
        Column.of_values (Array.init nrows (fun i -> distinct_rows.(i).(j))))
  in
  let mult = Array.sub mult 0 nrows in
  let order = if nrows = total then None else Some order in
  let bytes =
    Array.fold_left (fun acc c -> acc + Column.bytes c) 0 cols
    + (8 * nrows)
    + (match order with Some o -> 8 * Array.length o | None -> 0)
  in
  Metrics.incr m_built;
  { schema; total; nrows; cols; mult; order; bytes }

let get_row t id = Array.init (arity t) (fun j -> Column.get t.cols.(j) id)

(* Each distinct row is materialized once and duplicates share its
   array (relations never mutate rows in place, so sharing is safe). *)
let to_relation t =
  let rows = Array.init t.nrows (get_row t) in
  Relation.of_rows_unchecked t.schema
    (match t.order with
    | None -> rows
    | Some order -> Array.map (Array.get rows) order)
