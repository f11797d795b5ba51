(* Abstract syntax shared by the SQL engine and (via reuse of [expr]) the
   PaQL front end. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type agg_func = Count_star | Count | Sum | Avg | Min | Max

type expr =
  | Lit of Pb_relation.Value.t
  | Col of string  (* possibly qualified, lower-cased *)
  | Unary_minus of expr
  | Not of expr
  | Binop of binop * expr * expr
  | Between of expr * expr * expr  (* e BETWEEN lo AND hi *)
  | In_list of expr * expr list * bool  (* negated? *)
  | In_query of expr * select * bool
  | Exists of select
  | Is_null of expr * bool  (* IS NULL / IS NOT NULL *)
  | Like of expr * string * bool
  | Agg of agg_func * expr option  (* Count_star carries None *)
  | Func of string * expr list  (* scalar functions: abs, lower, upper, ... *)
  | Case of (expr * expr) list * expr option
      (* CASE WHEN c THEN e ... [ELSE e] END; no ELSE yields NULL *)

and select_item = Star_item | Expr_item of expr * string option

and table_ref = { rel_name : string; alias : string option }

and order_dir = Asc | Desc

and set_op = Union | Union_all | Intersect | Except

and select = {
  distinct : bool;
  items : select_item list;
  from : table_ref list;
  where : expr option;
  group_by : expr list;
  having : expr option;
  order_by : (expr * order_dir) list;
  limit : int option;
  offset : int option;
  compound : (set_op * select) list;
      (* set operations applied left-to-right to this select's result *)
}

type column_def = { col_name : string; col_ty : Pb_relation.Value.ty }

type statement =
  | Select_stmt of select
  | Create_table of string * column_def list
  | Create_index of { table : string; column : string }
  | Insert of string * string list option * expr list list
  | Delete of string * expr option
  | Update of string * (string * expr) list * expr option
  | Drop_table of string

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "AND"
  | Or -> "OR"

let agg_to_string = function
  | Count_star | Count -> "COUNT"
  | Sum -> "SUM"
  | Avg -> "AVG"
  | Min -> "MIN"
  | Max -> "MAX"

(* Precedence levels used by both the parser and the pretty-printer so
   that printing then reparsing yields the same tree. *)
let binop_precedence = function
  | Or -> 1
  | And -> 2
  | Eq | Neq | Lt | Le | Gt | Ge -> 3
  | Add | Sub -> 4
  | Mul | Div -> 5

(* A string literal with embedded quotes doubled, as the lexer reads them. *)
let quote s = "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"

(* A float literal that lexes as a float (never as an INT) and reads back
   to the same bits; infinities use an exponent that overflows. *)
let float_literal f =
  if f = Float.infinity then "1e999"
  else if f = Float.neg_infinity then "-1e999"
  else
    let s = Pb_relation.Value.float_repr f in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'n') s then s
    else s ^ ".0"

let rec expr_to_string_prec prec e =
  let wrap p s = if p < prec then "(" ^ s ^ ")" else s in
  match e with
  | Lit (Pb_relation.Value.Str s) -> quote s
  | Lit (Pb_relation.Value.Float f) -> float_literal f
  | Lit v -> Pb_relation.Value.to_string v
  | Col c -> c
  | Unary_minus e ->
      (* "--" would open a line comment *)
      let s = expr_to_string_prec 6 e in
      if String.starts_with ~prefix:"-" s then "-(" ^ s ^ ")" else "-" ^ s
  | Not e ->
      (* NOT binds to a primary, so anything looser is parenthesized *)
      "NOT " ^ expr_to_string_prec 6 e
  | Binop (op, a, b) ->
      let p = binop_precedence op in
      (* comparisons do not chain: both operands sit one level tighter *)
      let pa = if p = 3 then p + 1 else p in
      wrap p
        (expr_to_string_prec pa a ^ " " ^ binop_to_string op ^ " "
        ^ expr_to_string_prec (p + 1) b)
  | Between (e, lo, hi) ->
      wrap 3
        (expr_to_string_prec 4 e ^ " BETWEEN " ^ expr_to_string_prec 4 lo
       ^ " AND " ^ expr_to_string_prec 4 hi)
  | In_list (e, es, neg) ->
      wrap 3
        (expr_to_string_prec 4 e
        ^ (if neg then " NOT IN (" else " IN (")
        ^ String.concat ", " (List.map (expr_to_string_prec 0) es)
        ^ ")")
  | In_query (e, q, neg) ->
      wrap 3
        (expr_to_string_prec 4 e
        ^ (if neg then " NOT IN (" else " IN (")
        ^ select_to_string q ^ ")")
  | Exists q -> "EXISTS (" ^ select_to_string q ^ ")"
  | Is_null (e, neg) ->
      wrap 3
        (expr_to_string_prec 4 e ^ if neg then " IS NOT NULL" else " IS NULL")
  | Like (e, pat, neg) ->
      wrap 3
        (expr_to_string_prec 4 e
        ^ (if neg then " NOT LIKE " else " LIKE ")
        ^ quote pat)
  | Agg (Count_star, _) -> "COUNT(*)"
  | Agg (f, Some e) -> agg_to_string f ^ "(" ^ expr_to_string_prec 0 e ^ ")"
  | Agg (f, None) -> agg_to_string f ^ "()"
  | Func (name, args) ->
      String.uppercase_ascii name
      ^ "("
      ^ String.concat ", " (List.map (expr_to_string_prec 0) args)
      ^ ")"
  | Case (branches, default) ->
      let branch (c, e) =
        "WHEN " ^ expr_to_string_prec 0 c ^ " THEN " ^ expr_to_string_prec 0 e
      in
      "CASE "
      ^ String.concat " " (List.map branch branches)
      ^ (match default with
        | Some e -> " ELSE " ^ expr_to_string_prec 0 e
        | None -> "")
      ^ " END"

and expr_to_string e = expr_to_string_prec 0 e

and select_item_to_string = function
  | Star_item -> "*"
  | Expr_item (e, None) -> expr_to_string e
  | Expr_item (e, Some a) -> expr_to_string e ^ " AS " ^ a

and table_ref_to_string { rel_name; alias } =
  match alias with None -> rel_name | Some a -> rel_name ^ " " ^ a

and select_to_string q =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "SELECT ";
  if q.distinct then Buffer.add_string buf "DISTINCT ";
  Buffer.add_string buf
    (String.concat ", " (List.map select_item_to_string q.items));
  Buffer.add_string buf " FROM ";
  Buffer.add_string buf
    (String.concat ", " (List.map table_ref_to_string q.from));
  (match q.where with
  | Some e -> Buffer.add_string buf (" WHERE " ^ expr_to_string e)
  | None -> ());
  (match q.group_by with
  | [] -> ()
  | es ->
      Buffer.add_string buf
        (" GROUP BY " ^ String.concat ", " (List.map expr_to_string es)));
  (match q.having with
  | Some e -> Buffer.add_string buf (" HAVING " ^ expr_to_string e)
  | None -> ());
  (match q.order_by with
  | [] -> ()
  | es ->
      let item (e, d) =
        expr_to_string e ^ match d with Asc -> " ASC" | Desc -> " DESC"
      in
      Buffer.add_string buf
        (" ORDER BY " ^ String.concat ", " (List.map item es)));
  (match q.limit with
  | Some k -> Buffer.add_string buf (" LIMIT " ^ string_of_int k)
  | None -> ());
  (match q.offset with
  | Some k -> Buffer.add_string buf (" OFFSET " ^ string_of_int k)
  | None -> ());
  List.iter
    (fun (op, rhs) ->
      let op_s =
        match op with
        | Union -> "UNION"
        | Union_all -> "UNION ALL"
        | Intersect -> "INTERSECT"
        | Except -> "EXCEPT"
      in
      Buffer.add_string buf (" " ^ op_s ^ " " ^ select_to_string rhs))
    q.compound;
  Buffer.contents buf

let statement_to_string = function
  | Select_stmt q -> select_to_string q
  | Create_table (name, cols) ->
      let col c =
        c.col_name ^ " " ^ Pb_relation.Value.ty_to_string c.col_ty
      in
      "CREATE TABLE " ^ name ^ " ("
      ^ String.concat ", " (List.map col cols)
      ^ ")"
  | Create_index { table; column } ->
      "CREATE INDEX ON " ^ table ^ " (" ^ column ^ ")"
  | Insert (name, cols, rows) ->
      let cols_s =
        match cols with
        | None -> ""
        | Some cs -> " (" ^ String.concat ", " cs ^ ")"
      in
      let row r =
        "(" ^ String.concat ", " (List.map expr_to_string r) ^ ")"
      in
      "INSERT INTO " ^ name ^ cols_s ^ " VALUES "
      ^ String.concat ", " (List.map row rows)
  | Delete (name, where) ->
      "DELETE FROM " ^ name
      ^ (match where with
        | Some e -> " WHERE " ^ expr_to_string e
        | None -> "")
  | Update (name, sets, where) ->
      let set (c, e) = c ^ " = " ^ expr_to_string e in
      "UPDATE " ^ name ^ " SET "
      ^ String.concat ", " (List.map set sets)
      ^ (match where with
        | Some e -> " WHERE " ^ expr_to_string e
        | None -> "")
  | Drop_table name -> "DROP TABLE " ^ name
