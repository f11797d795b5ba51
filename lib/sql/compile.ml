open Ast
module Value = Pb_relation.Value
module Schema = Pb_relation.Schema
module Relation = Pb_relation.Relation
module Trace = Pb_obs.Trace

exception Eval_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

(* LIKE patterns with % (any sequence) and _ (any char) are tokenized
   once, then matched by two-pointer backtracking on the last %. *)
type like_tok = Any_seq | Any_one | Exactly of char

type like_pattern = like_tok array

let compile_like pattern =
  Array.init (String.length pattern) (fun i ->
      match pattern.[i] with
      | '%' -> Any_seq
      | '_' -> Any_one
      | c -> Exactly c)

let like_match_compiled toks s =
  let np = Array.length toks and ns = String.length s in
  let rec go p i star_p star_i =
    if i = ns then
      let rec only_percent p = p = np || (toks.(p) = Any_seq && only_percent (p + 1)) in
      if only_percent p then true
      else if star_p >= 0 && star_i < ns then
        go (star_p + 1) (star_i + 1) star_p (star_i + 1)
      else false
    else if p < np && toks.(p) = Any_seq then go (p + 1) i p i
    else if
      p < np
      && (match toks.(p) with
         | Any_one -> true
         | Exactly c -> c = s.[i]
         | Any_seq -> false)
    then go (p + 1) (i + 1) star_p star_i
    else if star_p >= 0 then go (star_p + 1) (star_i + 1) star_p (star_i + 1)
    else false
  in
  go 0 0 (-1) (-1)

(* [scalar_function_lc] assumes the name is already lowercased — the
   compiler lowercases once per Func node instead of once per row. Error
   messages use the lowercased name. *)
let scalar_function_lc lname args =
  match (lname, args) with
  | "abs", [ Value.Int i ] -> Value.Int (abs i)
  | "abs", [ Value.Float f ] -> Value.Float (Float.abs f)
  | "abs", [ Value.Null ] -> Value.Null
  | "lower", [ Value.Str s ] -> Value.Str (String.lowercase_ascii s)
  | "upper", [ Value.Str s ] -> Value.Str (String.uppercase_ascii s)
  | "length", [ Value.Str s ] -> Value.Int (String.length s)
  | ("lower" | "upper" | "length"), [ Value.Null ] -> Value.Null
  | "round", [ v ] -> (
      match Value.to_float v with
      | Some f -> Value.Int (int_of_float (Float.round f))
      | None -> Value.Null)
  | "floor", [ v ] -> (
      match Value.to_float v with
      | Some f -> Value.Int (int_of_float (Float.floor f))
      | None -> Value.Null)
  | "ceil", [ v ] -> (
      match Value.to_float v with
      | Some f -> Value.Int (int_of_float (Float.ceil f))
      | None -> Value.Null)
  | "coalesce", vs -> (
      match List.find_opt (fun v -> v <> Value.Null) vs with
      | Some v -> v
      | None -> Value.Null)
  | "sqrt", [ v ] -> (
      match Value.to_float v with
      | Some f when f >= 0.0 -> Value.Float (sqrt f)
      | _ -> Value.Null)
  | name, args -> err "unknown function %s/%d" name (List.length args)

let scalar_function name args =
  scalar_function_lc (String.lowercase_ascii name) args

let binop_value op a b =
  match op with
  | Add -> Value.add a b
  | Sub -> Value.sub a b
  | Mul -> Value.mul a b
  | Div -> Value.div a b
  | Eq -> Value.cmp_bool (fun c -> c = 0) a b
  | Neq -> Value.cmp_bool (fun c -> c <> 0) a b
  | Lt -> Value.cmp_bool (fun c -> c < 0) a b
  | Le -> Value.cmp_bool (fun c -> c <= 0) a b
  | Gt -> Value.cmp_bool (fun c -> c > 0) a b
  | Ge -> Value.cmp_bool (fun c -> c >= 0) a b
  | And -> Value.logical_and a b
  | Or -> Value.logical_or a b

type select = Ast.select -> Relation.t

(* What a column reference and an aggregate node compile to: the only
   two nodes whose meaning depends on the input (one row, or one group of
   rows). Both are called once per node at compile time and return the
   per-input closure, so a row closure reads [row.(i)] directly. *)
type 'a leaves = {
  col : string -> 'a -> Value.t;
  agg : agg_func -> expr option -> 'a -> Value.t;
}

(* The structural compiler, shared by rows and groups. Evaluation order
   is pinned with explicit lets: the right operand of a Binop before the
   left, the upper bound of BETWEEN before the lower, function arguments
   left to right. When two subexpressions both raise, the surfaced
   exception is always the same one. *)
let rec compile : 'a. 'a leaves -> select option -> expr -> 'a -> Value.t =
 fun leaves select e ->
  let c e = compile leaves select e in
  match e with
  | Lit v -> fun _ -> v
  | Col name -> leaves.col name
  | Agg (f, arg) -> leaves.agg f arg
  | Unary_minus e ->
      let ce = c e in
      fun x -> Value.neg (ce x)
  | Not e ->
      let ce = c e in
      fun x -> Value.logical_not (ce x)
  | Binop (op, a, b) ->
      let ca = c a and cb = c b in
      fun x ->
        let vb = cb x in
        let va = ca x in
        binop_value op va vb
  | Between (e, lo, hi) ->
      let ce = c e and clo = c lo and chi = c hi in
      fun x ->
        let v = ce x in
        let upper = Value.cmp_bool (fun c -> c <= 0) v (chi x) in
        let lower = Value.cmp_bool (fun c -> c >= 0) v (clo x) in
        Value.logical_and lower upper
  | In_list (e, items, neg) ->
      let ce = c e and citems = List.map c items in
      fun x ->
        let v = ce x in
        let hit = List.exists (fun ci -> Value.equal v (ci x)) citems in
        Value.Bool (if neg then not hit else hit)
  | In_query (e, q, neg) -> (
      let ce = c e in
      match select with
      | None -> fun _ -> err "IN subquery requires a database context"
      | Some select ->
          fun x ->
            let v = ce x in
            let sub = select q in
            if
              Relation.cardinality sub > 0
              && Schema.arity (Relation.schema sub) <> 1
            then err "IN subquery must return one column"
            else
              let hit =
                Array.exists (fun r -> Value.equal v r.(0)) (Relation.rows sub)
              in
              Value.Bool (if neg then not hit else hit))
  | Exists q -> (
      match select with
      | None -> fun _ -> err "EXISTS subquery requires a database context"
      | Some select -> fun _ -> Value.Bool (Relation.cardinality (select q) > 0))
  | Is_null (e, neg) ->
      let ce = c e in
      fun x ->
        let null = Value.is_null (ce x) in
        Value.Bool (if neg then not null else null)
  | Like (e, pattern, neg) ->
      let ce = c e in
      let toks = compile_like pattern in
      fun x -> (
        match ce x with
        | Value.Null -> Value.Null
        | Value.Str s ->
            let hit = like_match_compiled toks s in
            Value.Bool (if neg then not hit else hit)
        | v -> err "LIKE on non-string value %s" (Value.to_string v))
  | Func (name, args) -> (
      let lname = String.lowercase_ascii name in
      match List.map c args with
      | [ ca ] -> fun x -> scalar_function_lc lname [ ca x ]
      | [ ca; cb ] ->
          fun x ->
            let va = ca x in
            let vb = cb x in
            scalar_function_lc lname [ va; vb ]
      | cargs -> fun x -> scalar_function_lc lname (List.map (fun ca -> ca x) cargs))
  | Case (branches, default) ->
      let cbranches = List.map (fun (cond, v) -> (c cond, c v)) branches in
      let cdefault = Option.map c default in
      fun x ->
        let rec walk = function
          | [] -> ( match cdefault with Some ce -> ce x | None -> Value.Null)
          | (ccond, cval) :: rest ->
              if Value.truthy (ccond x) then cval x else walk rest
        in
        walk cbranches

(* Row leaves: a column is an offset resolved now. An unknown or
   ambiguous column defers [Schema.index_of_exn]'s Failure to the first
   row, so compiling against an empty input never raises. *)
let row_leaves schema =
  {
    col =
      (fun name ->
        match Schema.index_of schema name with
        | Some i -> fun row -> row.(i)
        | None -> fun row -> row.(Schema.index_of_exn schema name));
    agg =
      (fun f _ _ -> err "aggregate %s outside GROUP context" (agg_to_string f));
  }

(* No span here: a single expression compiles in microseconds and this
   runs everywhere (including before a query's root span opens); the
   traced compile is the memoized one below, which sits inside a
   statement's span tree. *)
let expr ?select schema e = compile (row_leaves schema) select e

let predicate ?select schema e =
  let f = expr ?select schema e in
  fun row -> Value.truthy (f row)

(* An aggregate's argument values over the group: every row is evaluated
   (in order) before any is reduced, and NULLs are dropped. *)
let non_null arg group =
  Array.fold_right
    (fun v acc -> if Value.is_null v then acc else v :: acc)
    (Array.map arg group) []

let reduce f arg group =
  match (f, non_null arg group) with
  | Count, vs -> Value.Int (List.length vs)
  | Count_star, _ -> Value.Int (Array.length group)
  | _, [] -> Value.Null
  | Sum, vs ->
      if List.for_all (function Value.Int _ -> true | _ -> false) vs then
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

(* Group leaves: a column reads the group's first row (all NULLs for an
   empty group); an aggregate compiles its argument as a row closure and
   reduces the whole group with it. *)
let group_leaves ?select schema =
  let nulls = Array.make (Schema.arity schema) Value.Null in
  let first group = if Array.length group > 0 then group.(0) else nulls in
  {
    col =
      (fun name ->
        match Schema.index_of schema name with
        | Some i -> fun group -> (first group).(i)
        | None -> fun group -> (first group).(Schema.index_of_exn schema name));
    agg =
      (fun f arg ->
        match (f, arg) with
        | Count_star, _ -> fun group -> Value.Int (Array.length group)
        | f, Some arg ->
            let row = expr ?select schema arg in
            fun group -> reduce f row group
        | f, None -> fun _ -> err "%s requires an argument" (agg_to_string f));
  }

let group ?select schema e = compile (group_leaves ?select schema) select e

module Memo = struct
  type key = Ast.expr * Schema.column list

  type t = {
    mu : Mutex.t;
    tbl : (key, Value.t array -> Value.t) Hashtbl.t;
  }

  let create () = { mu = Mutex.create (); tbl = Hashtbl.create 32 }

  let size t =
    Mutex.lock t.mu;
    let n = Hashtbl.length t.tbl in
    Mutex.unlock t.mu;
    n

  let expr t ?select schema e =
    let key = (e, Schema.columns schema) in
    Mutex.lock t.mu;
    match Hashtbl.find_opt t.tbl key with
    | Some f ->
        Mutex.unlock t.mu;
        f
    | None ->
        Mutex.unlock t.mu;
        (* Compile outside the lock; on a race the first insert wins so all
           callers share one closure. *)
        let f =
          Trace.with_span ~name:"sql.compile" (fun () ->
              expr ?select schema e)
        in
        Mutex.lock t.mu;
        let f =
          match Hashtbl.find_opt t.tbl key with
          | Some g -> g
          | None ->
              Hashtbl.add t.tbl key f;
              f
        in
        Mutex.unlock t.mu;
        f
end
