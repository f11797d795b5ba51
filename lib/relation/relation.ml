type t = { schema : Schema.t; store : Value.t array array }

let validate schema row =
  if Array.length row <> Schema.arity schema then
    invalid_arg
      (Printf.sprintf "Relation: row arity %d does not match schema arity %d"
         (Array.length row) (Schema.arity schema))

let create schema rows =
  List.iter (validate schema) rows;
  { schema; store = Array.of_list rows }

let of_rows_unchecked schema store = { schema; store }
let empty schema = { schema; store = [||] }
let schema t = t.schema
let cardinality t = Array.length t.store
let rows t = t.store
let row t i = t.store.(i)
let to_list t = Array.to_list t.store

let append t new_rows =
  List.iter (validate t.schema) new_rows;
  { t with store = Array.append t.store (Array.of_list new_rows) }

let get t i col = t.store.(i).(Schema.index_of_exn t.schema col)

let column_values t col =
  let idx = Schema.index_of_exn t.schema col in
  Array.to_list (Array.map (fun r -> r.(idx)) t.store)

(* Two passes over the row array: test each row once, in order, then copy
   the survivors into an exactly-sized array. The kept rows are the
   input's own arrays. *)
let filter pred t =
  let src = t.store in
  let n = Array.length src in
  let keep = Bytes.make n '\000' and kept = ref 0 in
  for i = 0 to n - 1 do
    if pred src.(i) then begin
      Bytes.set keep i '\001';
      incr kept
    end
  done;
  let store = Array.make !kept [||] and j = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.get keep i = '\001' then begin
      store.(!j) <- src.(i);
      incr j
    end
  done;
  { t with store }

let map_rows schema f t =
  let store = Array.map f t.store in
  Array.iter (validate schema) store;
  { schema; store }

let project t cols =
  let idxs = List.map (Schema.index_of_exn t.schema) cols in
  let old_cols = Array.of_list (Schema.columns t.schema) in
  let schema = Schema.make (List.map (fun i -> old_cols.(i)) idxs) in
  let pick r = Array.of_list (List.map (fun i -> r.(i)) idxs) in
  { schema; store = Array.map pick t.store }

let rename alias t = { t with schema = Schema.qualify alias t.schema }

let product a b =
  let schema = Schema.concat a.schema b.schema in
  let out = ref [] in
  Array.iter
    (fun ra ->
      Array.iter (fun rb -> out := Array.append ra rb :: !out) b.store)
    a.store;
  { schema; store = Array.of_list (List.rev !out) }

let sort_by cmp t =
  let store = Array.copy t.store in
  Array.sort cmp store;
  { t with store }

let column_stats t col =
  match Schema.index_of t.schema col with
  | None -> None
  | Some idx ->
      let acc = ref None in
      Array.iter
        (fun r ->
          match Value.to_float r.(idx) with
          | None -> ()
          | Some x -> (
              match !acc with
              | None -> acc := Some (x, x, x)
              | Some (lo, hi, sum) ->
                  acc := Some (min lo x, max hi x, sum +. x)))
        t.store;
      !acc

let to_table ?max_rows t =
  let names = Schema.names t.schema in
  let all = to_list t in
  let shown, elided =
    match max_rows with
    | Some m when List.length all > m ->
        (List.filteri (fun i _ -> i < m) all, List.length all - m)
    | _ -> (all, 0)
  in
  let rows =
    List.map (fun r -> Array.to_list (Array.map Value.to_string r)) shown
  in
  let base = Pb_util.Table.render ~header:names rows in
  if elided > 0 then base ^ Printf.sprintf "... (%d more rows)\n" elided
  else base

let pp ppf t = Format.pp_print_string ppf (to_table t)
