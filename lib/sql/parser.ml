open Ast

exception Parse_error of string

type state = { toks : Lexer.token array; mutable pos : int }

let state_of_tokens toks = { toks = Array.of_list toks; pos = 0 }

let peek st = st.toks.(st.pos)

let peek2 st =
  if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1)
  else Lexer.Eof

let advance st =
  let t = peek st in
  if t <> Lexer.Eof then st.pos <- st.pos + 1;
  t

let fail st msg =
  raise
    (Parse_error
       (Printf.sprintf "%s (at token %s)" msg
          (Lexer.token_to_string (peek st))))

let accept st tok =
  if peek st = tok then (
    ignore (advance st);
    true)
  else false

let expect st tok =
  if not (accept st tok) then
    fail st ("expected " ^ Lexer.token_to_string tok)

let at_keyword st kw = match peek st with Lexer.Keyword k -> k = kw | _ -> false

let accept_keyword st kw =
  if at_keyword st kw then (
    ignore (advance st);
    true)
  else false

let expect_keyword st kw =
  if not (accept_keyword st kw) then fail st ("expected " ^ kw)

let parse_identifier st =
  match advance st with
  | Lexer.Ident name -> name
  | t -> raise (Parse_error ("expected identifier, got " ^ Lexer.token_to_string t))

(* A column reference, optionally qualified: name | alias . name *)
let parse_column_ref st first =
  if accept st Lexer.Dot then
    match advance st with
    | Lexer.Ident field -> first ^ "." ^ field
    | t ->
        raise
          (Parse_error
             ("expected field name after '.', got " ^ Lexer.token_to_string t))
  else first

let agg_of_keyword = function
  | "COUNT" -> Some Count
  | "SUM" -> Some Sum
  | "AVG" -> Some Avg
  | "MIN" -> Some Min
  | "MAX" -> Some Max
  | _ -> None

let rec parse_primary st =
  match advance st with
  | Lexer.Int_lit i -> Lit (Pb_relation.Value.Int i)
  | Lexer.Float_lit f -> Lit (Pb_relation.Value.Float f)
  | Lexer.Str_lit s -> Lit (Pb_relation.Value.Str s)
  | Lexer.Keyword "TRUE" -> Lit (Pb_relation.Value.Bool true)
  | Lexer.Keyword "FALSE" -> Lit (Pb_relation.Value.Bool false)
  | Lexer.Keyword "NULL" -> Lit Pb_relation.Value.Null
  | Lexer.Keyword "EXISTS" ->
      expect st Lexer.Lparen;
      let q = parse_select_state st in
      expect st Lexer.Rparen;
      Exists q
  | Lexer.Keyword "NOT" -> Not (parse_primary st)
  | Lexer.Keyword "CASE" ->
      let rec branches acc =
        if accept_keyword st "WHEN" then begin
          let cond = parse_expr_state st in
          expect_keyword st "THEN";
          let value = parse_expr_state st in
          branches ((cond, value) :: acc)
        end
        else List.rev acc
      in
      let bs = branches [] in
      if bs = [] then fail st "CASE requires at least one WHEN branch";
      let default =
        if accept_keyword st "ELSE" then Some (parse_expr_state st) else None
      in
      expect_keyword st "END";
      Case (bs, default)
  | Lexer.Keyword kw when agg_of_keyword kw <> None -> (
      let agg = Option.get (agg_of_keyword kw) in
      expect st Lexer.Lparen;
      match (agg, peek st) with
      | Count, Lexer.Star ->
          ignore (advance st);
          expect st Lexer.Rparen;
          Agg (Count_star, None)
      | _ ->
          let arg = parse_expr_state st in
          expect st Lexer.Rparen;
          Agg (agg, Some arg))
  | Lexer.Minus -> Unary_minus (parse_primary st)
  | Lexer.Plus -> parse_primary st
  | Lexer.Lparen ->
      if at_keyword st "SELECT" then (
        (* Scalar subqueries are not supported; parenthesized SELECT only
           appears behind IN/EXISTS, which handle it themselves. *)
        fail st "subquery not allowed here")
      else
        let e = parse_expr_state st in
        expect st Lexer.Rparen;
        e
  | Lexer.Ident name ->
      if peek st = Lexer.Lparen && peek2 st <> Lexer.Star then (
        ignore (advance st);
        let args =
          if peek st = Lexer.Rparen then []
          else
            let rec more acc =
              let e = parse_expr_state st in
              if accept st Lexer.Comma then more (e :: acc)
              else List.rev (e :: acc)
            in
            more []
        in
        expect st Lexer.Rparen;
        Func (name, args))
      else Col (parse_column_ref st name)
  | t -> raise (Parse_error ("unexpected token " ^ Lexer.token_to_string t))

and parse_mul st =
  let rec loop acc =
    match peek st with
    | Lexer.Star ->
        ignore (advance st);
        loop (Binop (Mul, acc, parse_primary st))
    | Lexer.Slash ->
        ignore (advance st);
        loop (Binop (Div, acc, parse_primary st))
    | _ -> acc
  in
  loop (parse_primary st)

and parse_add st =
  let rec loop acc =
    match peek st with
    | Lexer.Plus ->
        ignore (advance st);
        loop (Binop (Add, acc, parse_mul st))
    | Lexer.Minus ->
        ignore (advance st);
        loop (Binop (Sub, acc, parse_mul st))
    | _ -> acc
  in
  loop (parse_mul st)

(* Comparison level, including BETWEEN / IN / IS NULL / LIKE postfixes. *)
and parse_comparison st =
  let lhs = parse_add st in
  let negated = accept_keyword st "NOT" in
  match peek st with
  | Lexer.Eq_tok ->
      ignore (advance st);
      let e = Binop (Eq, lhs, parse_add st) in
      if negated then Not e else e
  | Lexer.Neq_tok ->
      ignore (advance st);
      let e = Binop (Neq, lhs, parse_add st) in
      if negated then Not e else e
  | Lexer.Lt_tok ->
      ignore (advance st);
      let e = Binop (Lt, lhs, parse_add st) in
      if negated then Not e else e
  | Lexer.Le_tok ->
      ignore (advance st);
      let e = Binop (Le, lhs, parse_add st) in
      if negated then Not e else e
  | Lexer.Gt_tok ->
      ignore (advance st);
      let e = Binop (Gt, lhs, parse_add st) in
      if negated then Not e else e
  | Lexer.Ge_tok ->
      ignore (advance st);
      let e = Binop (Ge, lhs, parse_add st) in
      if negated then Not e else e
  | Lexer.Keyword "BETWEEN" ->
      ignore (advance st);
      let lo = parse_add st in
      expect_keyword st "AND";
      let hi = parse_add st in
      let e = Between (lhs, lo, hi) in
      if negated then Not e else e
  | Lexer.Keyword "IN" ->
      ignore (advance st);
      expect st Lexer.Lparen;
      let e =
        if at_keyword st "SELECT" then In_query (lhs, parse_select_state st, negated)
        else
          let rec more acc =
            let item = parse_expr_state st in
            if accept st Lexer.Comma then more (item :: acc)
            else List.rev (item :: acc)
          in
          In_list (lhs, more [], negated)
      in
      expect st Lexer.Rparen;
      e
  | Lexer.Keyword "IS" ->
      ignore (advance st);
      let neg = accept_keyword st "NOT" in
      expect_keyword st "NULL";
      if negated then fail st "NOT before IS is not supported"
      else Is_null (lhs, neg)
  | Lexer.Keyword "LIKE" -> (
      ignore (advance st);
      match advance st with
      | Lexer.Str_lit pat -> Like (lhs, pat, negated)
      | t ->
          raise
            (Parse_error
               ("expected pattern string after LIKE, got "
              ^ Lexer.token_to_string t)))
  | _ ->
      if negated then fail st "expected comparison after NOT" else lhs

and parse_and st =
  let rec loop acc =
    if accept_keyword st "AND" then loop (Binop (And, acc, parse_comparison st))
    else acc
  in
  loop (parse_comparison st)

and parse_expr_state st =
  let rec loop acc =
    if accept_keyword st "OR" then loop (Binop (Or, acc, parse_and st))
    else acc
  in
  loop (parse_and st)

and parse_select_items st =
  let parse_item () =
    if accept st Lexer.Star then Star_item
    else
      let e = parse_expr_state st in
      let alias =
        if accept_keyword st "AS" then Some (parse_identifier st)
        else
          match peek st with
          | Lexer.Ident _ -> Some (parse_identifier st)
          | _ -> None
      in
      Expr_item (e, alias)
  in
  let rec more acc =
    let item = parse_item () in
    if accept st Lexer.Comma then more (item :: acc) else List.rev (item :: acc)
  in
  more []

and parse_from st =
  let parse_ref () =
    let rel_name = parse_identifier st in
    let alias =
      if accept_keyword st "AS" then Some (parse_identifier st)
      else
        match peek st with
        | Lexer.Ident _ -> Some (parse_identifier st)
        | _ -> None
    in
    { rel_name; alias }
  in
  let rec more acc =
    let r = parse_ref () in
    if accept st Lexer.Comma then more (r :: acc) else List.rev (r :: acc)
  in
  more []

and parse_select_state st =
  let first = parse_simple_select st in
  (* Left-associative set operations; INTERSECT is not given higher
     precedence (documented deviation from the standard). *)
  let rec compounds acc =
    let op =
      if accept_keyword st "UNION" then
        Some (if accept_keyword st "ALL" then Union_all else Union)
      else if accept_keyword st "INTERSECT" then Some Intersect
      else if accept_keyword st "EXCEPT" then Some Except
      else None
    in
    match op with
    | Some op ->
        let rhs = parse_simple_select st in
        compounds ((op, rhs) :: acc)
    | None -> List.rev acc
  in
  let compound = compounds [] in
  if compound = [] then first else { first with compound }

and parse_simple_select st =
  expect_keyword st "SELECT";
  let distinct = accept_keyword st "DISTINCT" in
  let items = parse_select_items st in
  expect_keyword st "FROM";
  let from = parse_from st in
  let where =
    if accept_keyword st "WHERE" then Some (parse_expr_state st) else None
  in
  let group_by =
    if accept_keyword st "GROUP" then (
      expect_keyword st "BY";
      let rec more acc =
        let e = parse_expr_state st in
        if accept st Lexer.Comma then more (e :: acc) else List.rev (e :: acc)
      in
      more [])
    else []
  in
  let having =
    if accept_keyword st "HAVING" then Some (parse_expr_state st) else None
  in
  let order_by =
    if accept_keyword st "ORDER" then (
      expect_keyword st "BY";
      let rec more acc =
        let e = parse_expr_state st in
        let dir =
          if accept_keyword st "DESC" then Desc
          else (
            ignore (accept_keyword st "ASC");
            Asc)
        in
        if accept st Lexer.Comma then more ((e, dir) :: acc)
        else List.rev ((e, dir) :: acc)
      in
      more [])
    else []
  in
  let parse_count kw =
    if accept_keyword st kw then
      match advance st with
      | Lexer.Int_lit k -> Some k
      | t ->
          raise
            (Parse_error
               (Printf.sprintf "expected integer after %s, got %s" kw
                  (Lexer.token_to_string t)))
    else None
  in
  let limit = parse_count "LIMIT" in
  let offset = parse_count "OFFSET" in
  {
    distinct; items; from; where; group_by; having; order_by; limit; offset;
    compound = [];
  }

let parse_ty st =
  match advance st with
  | Lexer.Keyword "INT" -> Pb_relation.Value.T_int
  | Lexer.Keyword "FLOAT" -> Pb_relation.Value.T_float
  | Lexer.Keyword "TEXT" -> Pb_relation.Value.T_str
  | Lexer.Keyword "BOOL" -> Pb_relation.Value.T_bool
  | t -> raise (Parse_error ("expected column type, got " ^ Lexer.token_to_string t))

let parse_statement_state st =
  if at_keyword st "SELECT" then Select_stmt (parse_select_state st)
  else if accept_keyword st "CREATE" then
    if accept_keyword st "INDEX" then begin
      (* CREATE INDEX ON table (column) — index names are not needed by
         the planner, so the grammar omits them. *)
      expect_keyword st "ON";
      let table = parse_identifier st in
      expect st Lexer.Lparen;
      let column = parse_identifier st in
      expect st Lexer.Rparen;
      Create_index { table; column }
    end
    else (
    expect_keyword st "TABLE";
    let name = parse_identifier st in
    expect st Lexer.Lparen;
    let rec cols acc =
      let col_name = parse_identifier st in
      let col_ty = parse_ty st in
      let acc = { col_name; col_ty } :: acc in
      if accept st Lexer.Comma then cols acc else List.rev acc
    in
    let defs = cols [] in
    expect st Lexer.Rparen;
    Create_table (name, defs))
  else if accept_keyword st "INSERT" then (
    expect_keyword st "INTO";
    let name = parse_identifier st in
    let cols =
      if peek st = Lexer.Lparen then (
        ignore (advance st);
        let rec more acc =
          let c = parse_identifier st in
          if accept st Lexer.Comma then more (c :: acc) else List.rev (c :: acc)
        in
        let cs = more [] in
        expect st Lexer.Rparen;
        Some cs)
      else None
    in
    expect_keyword st "VALUES";
    let parse_row () =
      expect st Lexer.Lparen;
      let rec more acc =
        let e = parse_expr_state st in
        if accept st Lexer.Comma then more (e :: acc) else List.rev (e :: acc)
      in
      let row = more [] in
      expect st Lexer.Rparen;
      row
    in
    let rec rows acc =
      let r = parse_row () in
      if accept st Lexer.Comma then rows (r :: acc) else List.rev (r :: acc)
    in
    Insert (name, cols, rows []))
  else if accept_keyword st "DELETE" then (
    expect_keyword st "FROM";
    let name = parse_identifier st in
    let where =
      if accept_keyword st "WHERE" then Some (parse_expr_state st) else None
    in
    Delete (name, where))
  else if accept_keyword st "UPDATE" then (
    let name = parse_identifier st in
    expect_keyword st "SET";
    let rec sets acc =
      let c = parse_identifier st in
      expect st Lexer.Eq_tok;
      let e = parse_expr_state st in
      if accept st Lexer.Comma then sets ((c, e) :: acc)
      else List.rev ((c, e) :: acc)
    in
    let assignments = sets [] in
    let where =
      if accept_keyword st "WHERE" then Some (parse_expr_state st) else None
    in
    Update (name, assignments, where))
  else if accept_keyword st "DROP" then (
    expect_keyword st "TABLE";
    Drop_table (parse_identifier st))
  else fail st "expected statement"

let finish st =
  ignore (accept st Lexer.Semicolon);
  if peek st <> Lexer.Eof then fail st "trailing input"

let parse_select src =
  let st = state_of_tokens (Lexer.tokenize src) in
  let q = parse_select_state st in
  finish st;
  q

let parse_statement src =
  let st = state_of_tokens (Lexer.tokenize src) in
  let s = parse_statement_state st in
  finish st;
  s

let parse_script src =
  let st = state_of_tokens (Lexer.tokenize src) in
  let rec loop acc =
    if peek st = Lexer.Eof then List.rev acc
    else
      let s = parse_statement_state st in
      ignore (accept st Lexer.Semicolon);
      loop (s :: acc)
  in
  loop []
