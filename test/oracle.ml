(* The reference SQL expression semantics: a tree-walking interpreter
   over one row, its aggregate reducer over a group of rows, and the
   two-pointer LIKE matcher over the raw pattern string. The engine
   evaluates through {!Pb_sql.Compile}'s closures; the differential
   suite checks them against this module, so it stays deliberately
   naive. Subqueries re-enter {!Pb_sql.Executor.select}. *)

open Pb_sql.Ast
module Value = Pb_relation.Value
module Schema = Pb_relation.Schema
module Relation = Pb_relation.Relation
module Compile = Pb_sql.Compile
module Executor = Pb_sql.Executor

let err fmt = Printf.ksprintf (fun s -> raise (Compile.Eval_error s)) fmt

(* Leaf value semantics (binary operators, scalar functions) are the
   engine's own: [Compile.expr] over literal operands evaluates exactly
   one such node. The oracle checks the tree walk around them. *)
let leaf e = Compile.expr (Schema.make []) e [||]
let binop_value op a b = leaf (Binop (op, Lit a, Lit b))
let scalar_function name args = leaf (Func (name, List.map (fun v -> Lit v) args))

(* LIKE with % (any sequence) and _ (any char), by two-pointer
   backtracking on the last %. *)
let like_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  let rec go p i star_p star_i =
    if i = ns then
      let rec only_percent p = p = np || (pattern.[p] = '%' && only_percent (p + 1)) in
      if only_percent p then true
      else if star_p >= 0 && star_i < ns then
        go (star_p + 1) (star_i + 1) star_p (star_i + 1)
      else false
    else if p < np && pattern.[p] = '%' then go (p + 1) i p i
    else if p < np && (pattern.[p] = '_' || pattern.[p] = s.[i]) then
      go (p + 1) (i + 1) star_p star_i
    else if star_p >= 0 then go (star_p + 1) (star_i + 1) star_p (star_i + 1)
    else false
  in
  go 0 0 (-1) (-1)

let in_query ?gov db v q neg =
  let sub = Executor.select ?gov db q in
  if Relation.cardinality sub > 0 && Schema.arity (Relation.schema sub) <> 1
  then err "IN subquery must return one column"
  else
    let hit = Array.exists (fun r -> Value.equal v r.(0)) (Relation.rows sub) in
    Value.Bool (if neg then not hit else hit)

let eval_case ev branches default =
  let rec walk = function
    | [] -> ( match default with Some e -> ev e | None -> Value.Null)
    | (cond, value) :: rest -> if Value.truthy (ev cond) then ev value else walk rest
  in
  walk branches

let rec eval_expr ?db ?gov schema row e =
  let ev e = eval_expr ?db ?gov schema row e in
  match e with
  | Lit v -> v
  | Col name -> row.(Schema.index_of_exn schema name)
  | Unary_minus e -> Value.neg (ev e)
  | Not e -> Value.logical_not (ev e)
  | Binop (op, a, b) -> binop_value op (ev a) (ev b)
  | Between (e, lo, hi) ->
      let v = ev e in
      Value.logical_and
        (Value.cmp_bool (fun c -> c >= 0) v (ev lo))
        (Value.cmp_bool (fun c -> c <= 0) v (ev hi))
  | In_list (e, items, neg) ->
      let v = ev e in
      let hit = List.exists (fun it -> Value.equal v (ev it)) items in
      Value.Bool (if neg then not hit else hit)
  | In_query (e, q, neg) -> (
      match db with
      | None -> err "IN subquery requires a database context"
      | Some db -> in_query ?gov db (ev e) q neg)
  | Exists q -> (
      match db with
      | None -> err "EXISTS subquery requires a database context"
      | Some db -> Value.Bool (Relation.cardinality (Executor.select ?gov db q) > 0))
  | Is_null (e, neg) ->
      let null = Value.is_null (ev e) in
      Value.Bool (if neg then not null else null)
  | Like (e, pattern, neg) -> (
      match ev e with
      | Value.Null -> Value.Null
      | Value.Str s ->
          let hit = like_match ~pattern s in
          Value.Bool (if neg then not hit else hit)
      | v -> err "LIKE on non-string value %s" (Value.to_string v))
  | Agg (f, _) -> err "aggregate %s outside GROUP context" (agg_to_string f)
  | Func (name, args) -> scalar_function name (List.map ev args)
  | Case (branches, default) -> eval_case ev branches default

(* Aggregate nodes reduce the whole group; other column references
   resolve against the first row (all NULLs for an empty group). *)
let eval_agg_expr ?db ?gov schema group e =
  let representative =
    match group with
    | r :: _ -> r
    | [] -> Array.make (Schema.arity schema) Value.Null
  in
  let rec ev e =
    match e with
    | Agg (Count_star, _) -> Value.Int (List.length group)
    | Agg (f, Some arg) -> reduce f arg
    | Agg (f, None) -> err "%s requires an argument" (agg_to_string f)
    | Lit v -> v
    | Col name -> representative.(Schema.index_of_exn schema name)
    | Unary_minus e -> Value.neg (ev e)
    | Not e -> Value.logical_not (ev e)
    | Binop (op, a, b) -> binop_value op (ev a) (ev b)
    | Between (e, lo, hi) ->
        let v = ev e in
        Value.logical_and
          (Value.cmp_bool (fun c -> c >= 0) v (ev lo))
          (Value.cmp_bool (fun c -> c <= 0) v (ev hi))
    | In_list (e, items, neg) ->
        let v = ev e in
        let hit = List.exists (fun it -> Value.equal v (ev it)) items in
        Value.Bool (if neg then not hit else hit)
    | In_query (lhs, sub, neg) -> (
        match db with
        | None -> err "IN subquery requires a database context"
        | Some db -> in_query ?gov db (ev lhs) sub neg)
    | Exists sub -> (
        match db with
        | None -> err "EXISTS subquery requires a database context"
        | Some db ->
            Value.Bool (Relation.cardinality (Executor.select ?gov db sub) > 0))
    | Is_null (e, neg) ->
        let null = Value.is_null (ev e) in
        Value.Bool (if neg then not null else null)
    | Like (lhs, pattern, neg) -> (
        match ev lhs with
        | Value.Null -> Value.Null
        | Value.Str s ->
            let hit = like_match ~pattern s in
            Value.Bool (if neg then not hit else hit)
        | v -> err "LIKE on non-string value %s" (Value.to_string v))
    | Func (name, args) -> scalar_function name (List.map ev args)
    | Case (branches, default) -> eval_case ev branches default
  and reduce f arg =
    let values =
      List.filter_map
        (fun r ->
          let v = eval_expr ?db ?gov schema r arg in
          if Value.is_null v then None else Some v)
        group
    in
    match (f, values) with
    | Count, vs -> Value.Int (List.length vs)
    | Count_star, _ -> Value.Int (List.length group)
    | _, [] -> Value.Null
    | Sum, vs ->
        let all_int = List.for_all (function Value.Int _ -> true | _ -> false) vs in
        if all_int then
          Value.Int
            (List.fold_left (fun acc v -> acc + Option.get (Value.to_int v)) 0 vs)
        else
          Value.Float
            (List.fold_left
               (fun acc v ->
                 match Value.to_float v with
                 | Some x -> acc +. x
                 | None -> err "SUM over non-numeric value")
               0.0 vs)
    | Avg, vs ->
        let total =
          List.fold_left
            (fun acc v ->
              match Value.to_float v with
              | Some x -> acc +. x
              | None -> err "AVG over non-numeric value")
            0.0 vs
        in
        Value.Float (total /. float_of_int (List.length vs))
    | Min, v :: vs ->
        List.fold_left (fun a b -> if Value.compare_values b a < 0 then b else a) v vs
    | Max, v :: vs ->
        List.fold_left (fun a b -> if Value.compare_values b a > 0 then b else a) v vs
  in
  ev e
