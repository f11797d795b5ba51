module Value = Pb_relation.Value
module Relation = Pb_relation.Relation
module Schema = Pb_relation.Schema

type t = { keys : Value.t array; positions : int array }

type bound = Value.t * bool

let build rel col =
  let idx = Schema.index_of_exn (Relation.schema rel) col in
  let entries = ref [] in
  Array.iteri
    (fun pos row ->
      let key = row.(idx) in
      if not (Value.is_null key) then entries := (key, pos) :: !entries)
    (Relation.rows rel);
  let entries = Array.of_list !entries in
  Array.sort
    (fun (ka, pa) (kb, pb) ->
      let c = Value.compare_values ka kb in
      if c <> 0 then c else Int.compare pa pb)
    entries;
  {
    keys = Array.map fst entries;
    positions = Array.map snd entries;
  }

(* First position whose key is >= (or > when [strict]) the probe. *)
let lower_bound t probe ~strict =
  let n = Array.length t.keys in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      let c = Value.compare_values t.keys.(mid) probe in
      let before = if strict then c <= 0 else c < 0 in
      if before then go (mid + 1) hi else go lo mid
  in
  go 0 n

let range ?lo ?hi t =
  let start =
    match lo with
    | None -> 0
    | Some (v, inclusive) -> lower_bound t v ~strict:(not inclusive)
  in
  let stop =
    match hi with
    | None -> Array.length t.keys
    | Some (v, inclusive) -> lower_bound t v ~strict:inclusive
  in
  let out = ref [] in
  for i = stop - 1 downto start do
    out := t.positions.(i) :: !out
  done;
  !out
