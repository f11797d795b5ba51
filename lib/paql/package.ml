module Relation = Pb_relation.Relation
module Value = Pb_relation.Value

type t = {
  base : Relation.t;
  alias : string;
  mult : int array;
  cardinality : int;  (* cached sum of mult *)
}

let of_multiplicities base ~alias mult =
  if Array.length mult <> Relation.cardinality base then
    invalid_arg "Package.of_multiplicities: length mismatch";
  Array.iter
    (fun m -> if m < 0 then invalid_arg "Package.of_multiplicities: negative")
    mult;
  {
    base;
    alias;
    mult = Array.copy mult;
    cardinality = Array.fold_left ( + ) 0 mult;
  }

let of_indices base ~alias idxs =
  let mult = Array.make (Relation.cardinality base) 0 in
  List.iter
    (fun i ->
      if i < 0 || i >= Array.length mult then
        invalid_arg "Package.of_indices: index out of range";
      mult.(i) <- mult.(i) + 1)
    idxs;
  { base; alias; mult; cardinality = List.length idxs }

let base t = t.base
let multiplicity t i = t.mult.(i)
let multiplicities t = Array.copy t.mult
let cardinality t = t.cardinality

let support t =
  let out = ref [] in
  for i = Array.length t.mult - 1 downto 0 do
    if t.mult.(i) > 0 then out := i :: !out
  done;
  !out

let indices t =
  let out = ref [] in
  for i = Array.length t.mult - 1 downto 0 do
    for _ = 1 to t.mult.(i) do
      out := i :: !out
    done
  done;
  !out

let materialize t =
  let schema = Pb_relation.Schema.qualify t.alias (Relation.schema t.base) in
  let rows = ref [] in
  for i = Array.length t.mult - 1 downto 0 do
    for _ = 1 to t.mult.(i) do
      rows := Relation.row t.base i :: !rows
    done
  done;
  Relation.create schema !rows

let sum_column t col =
  let idx = Pb_relation.Schema.index_of_exn (Relation.schema t.base) col in
  let total = ref 0.0 in
  Array.iteri
    (fun i m ->
      if m > 0 then
        match Value.to_float (Relation.row t.base i).(idx) with
        | Some x -> total := !total +. (float_of_int m *. x)
        | None -> ())
    t.mult;
  !total

let to_string ?max_rows t =
  Relation.to_table ?max_rows (materialize t)
  ^ Printf.sprintf "-- package of %d tuple(s) (%d distinct)\n" t.cardinality
      (List.length (support t))
