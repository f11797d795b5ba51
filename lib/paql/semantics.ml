module Relation = Pb_relation.Relation
module Schema = Pb_relation.Schema
module Value = Pb_relation.Value
module Executor = Pb_sql.Executor
module Table = Pb_store.Table

(* Candidates in columnar form: the input table's image, the selected
   distinct-row ids in original row order (candidate index i is distinct
   row [positions.(i)]) for batch kernels, and the candidates' rows
   themselves. The rows are gathered from the stored relation, not
   rebuilt from the image: when the image is multiplicity-compressed,
   candidate i's row is the stored row at its original index, whose
   distinct id is [positions.(i)]. *)
type batch = {
  table : Table.t;
  schema : Schema.t;  (* input-alias-qualified *)
  positions : int array;  (* candidate index -> distinct row id *)
  rows : Value.t array array;  (* candidate index -> stored row *)
}

(* One counting pass and one filling pass over the stored rows: stored
   row i has distinct id [ord.(i)] in a compressed image, i otherwise. *)
let gather table stored sel =
  let id_of =
    match Table.order table with Some ord -> Array.get ord | None -> Fun.id
  in
  let hit i = Bytes.get sel (id_of i) = '\001' in
  let total = Array.length stored in
  let n = ref 0 in
  for i = 0 to total - 1 do
    if hit i then incr n
  done;
  let positions = Array.make !n 0 and rows = Array.make !n [||] in
  let k = ref 0 in
  for i = 0 to total - 1 do
    if hit i then begin
      positions.(!k) <- id_of i;
      rows.(!k) <- stored.(i);
      incr k
    end
  done;
  (positions, rows)

let candidates_batch db (q : Ast.t) =
  let module C = Pb_sql.Columnar in
  if not (Pb_store.Mode.columnar ()) then None
  else
    match Pb_sql.Database.find db q.input_relation with
    | None -> C.bail C.Missing_table (* let [candidates] raise its usual error *)
    | Some rel -> (
        let table = Pb_sql.Database.columnar db q.input_relation rel in
        let schema = Schema.qualify q.input_alias (Relation.schema rel) in
        let sel =
          match q.where with
          | None -> Some (Bytes.make (Table.distinct table) '\001')
          | Some pred -> (
              match C.bool_kernel schema table pred with
              | Some k -> Some (C.selection table k)
              | None -> C.bail C.Predicate)
        in
        Option.map
          (fun sel ->
            let positions, rows = gather table (Relation.rows rel) sel in
            { table; schema; positions; rows })
          sel)

let batch_candidates b = Relation.of_rows_unchecked b.schema b.rows

let batch_values b ~schema expr =
  match Pb_sql.Batch.compile schema b.table expr with
  | None -> None
  | Some k -> (
      let module B = Pb_sql.Batch in
      match k.B.kind with
      | B.K_str ->
          (* The row path warns per non-numeric tuple before substituting
             0; keep that diagnostic by falling back. *)
          None
      | B.K_num | B.K_bool ->
          let n = Table.distinct b.table in
          let vals = Array.make n 0.0 in
          let lo = ref 0 and chunks = ref 0 in
          while !lo < n do
            let len = min B.chunk (n - !lo) in
            incr chunks;
            (match k.B.run ~lo:!lo ~len with
            | B.Num (v, nulls) ->
                (* NULL maps to 0, exactly like the row path's
                   [Value.to_float = None] substitution. *)
                for i = 0 to len - 1 do
                  if not (B.null_at nulls i) then vals.(!lo + i) <- v.(i)
                done
            | B.B3 bits ->
                for i = 0 to len - 1 do
                  if Bytes.get bits i = '\001' then vals.(!lo + i) <- 1.0
                done
            | B.Sv _ -> assert false);
            lo := !lo + len
          done;
          Table.tick_chunks !chunks;
          (* Uncompressed with every row selected, positions is the
             identity and the distinct-row image is the vector itself. *)
          if (not (Table.compressed b.table))
             && Array.length b.positions = n
          then Some vals
          else Some (Array.map (fun id -> vals.(id)) b.positions))

let candidates db (q : Ast.t) =
  match candidates_batch db q with
  | Some b -> batch_candidates b
  | None -> (
      let rel = Pb_sql.Database.find_exn db q.input_relation in
      let qualified = Relation.rename q.input_alias rel in
      match q.where with
      | None -> qualified
      | Some pred ->
          let schema = Relation.schema qualified in
          (* The base predicate runs once per input tuple: compile it,
             with subqueries answered over [db]. *)
          let pred_fn =
            Pb_sql.Compile.predicate ~select:(Executor.select db) schema pred
          in
          Relation.filter pred_fn qualified)

let respects_multiplicity (q : Ast.t) pkg =
  let cap = Ast.max_multiplicity q in
  List.for_all (fun i -> Package.multiplicity pkg i <= cap) (Package.support pkg)

(* The package is one group: the expression is compiled once per
   validation and applied to the package's rows. *)
let eval_over_package ?db (q : Ast.t) pkg expr =
  ignore q;
  let materialized = Package.materialize pkg in
  Pb_sql.Compile.group
    ?select:(Option.map (fun db -> Executor.select db) db)
    (Relation.schema materialized) expr (Relation.rows materialized)

(* A NULL-valued constraint (SUM over an empty package) is not satisfied,
   following SQL filter semantics. *)
let satisfies_global ?db (q : Ast.t) pkg =
  match q.such_that with
  | None -> true
  | Some pred -> Value.truthy (eval_over_package ?db q pkg pred)

let is_valid ?db q pkg = respects_multiplicity q pkg && satisfies_global ?db q pkg

let objective_value ?db (q : Ast.t) pkg =
  match q.objective with
  | None -> None
  | Some (_, e) -> Value.to_float (eval_over_package ?db q pkg e)

let better dir a b =
  match dir with Ast.Maximize -> a > b | Ast.Minimize -> a < b

let compare_quality (q : Ast.t) a b =
  match q.objective with
  | None -> 0
  | Some (dir, _) -> (
      match (objective_value q a, objective_value q b) with
      | None, None -> 0
      | None, Some _ -> -1
      | Some _, None -> 1
      | Some va, Some vb ->
          if better dir va vb then 1 else if better dir vb va then -1 else 0)
