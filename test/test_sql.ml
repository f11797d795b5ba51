(* Tests for the SQL substrate: lexer, parser, LIKE matcher, executor
   semantics (joins, aggregates, group-by, subqueries, DML). *)

module Lexer = Pb_sql.Lexer
module Parser = Pb_sql.Parser
module Ast = Pb_sql.Ast
module Executor = Pb_sql.Executor
module Compile = Pb_sql.Compile
module Database = Pb_sql.Database
module Value = Pb_relation.Value
module Relation = Pb_relation.Relation

let test_lexer_basics () =
  let toks = Lexer.tokenize "SELECT a.b, 'it''s', 4.5e2 <= 12 -- comment\n<>" in
  (match toks with
  | Lexer.Keyword "SELECT" :: Lexer.Ident "a" :: Lexer.Dot :: Lexer.Ident "b"
    :: Lexer.Comma :: Lexer.Str_lit "it's" :: Lexer.Comma
    :: Lexer.Float_lit 450.0 :: Lexer.Le_tok :: Lexer.Int_lit 12 :: rest ->
      (* the comment runs to end of line; <> on the next line survives *)
      Alcotest.(check bool) "tail" true (rest = [ Lexer.Neq_tok; Lexer.Eof ])
  | _ -> Alcotest.fail "unexpected token stream");
  Alcotest.(check int) "token count" 12 (List.length toks)

let test_lexer_paql_keywords () =
  let toks = Lexer.tokenize "PACKAGE SUCH THAT REPEAT MAXIMIZE" in
  Alcotest.(check int) "5 keywords + eof" 6 (List.length toks);
  List.iteri
    (fun i t ->
      if i < 5 then
        match t with
        | Lexer.Keyword _ -> ()
        | _ -> Alcotest.fail "expected keyword")
    toks

let test_lexer_error () =
  (match Lexer.tokenize "SELECT #" with
  | exception Lexer.Lex_error (_, pos) -> Alcotest.(check int) "position" 7 pos
  | _ -> Alcotest.fail "expected lex error")

let test_parse_roundtrip () =
  let cases =
    [
      "SELECT * FROM t";
      "SELECT a, b AS c FROM t u WHERE u.a > 3 AND b <= 5";
      "SELECT COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2";
      "SELECT a FROM t ORDER BY a DESC, b ASC LIMIT 3";
      "SELECT DISTINCT a FROM t WHERE a BETWEEN 1 AND 2 OR b IN (1, 2, 3)";
      "SELECT a FROM t WHERE a IS NOT NULL AND name LIKE 'ab%'";
      "SELECT SUM(a + b * 2) FROM t WHERE NOT a = 3";
      "SELECT a FROM t WHERE EXISTS (SELECT b FROM s)";
      "SELECT a FROM t WHERE a NOT IN (SELECT b FROM s)";
    ]
  in
  List.iter
    (fun src ->
      let q1 = Parser.parse_select src in
      let printed = Ast.select_to_string q1 in
      let q2 = Parser.parse_select printed in
      Alcotest.(check string) ("roundtrip: " ^ src) printed
        (Ast.select_to_string q2))
    cases

let test_parse_statements () =
  let cases =
    [
      "CREATE TABLE t (a INT, b TEXT, c FLOAT, d BOOL)";
      "INSERT INTO t VALUES (1, 'x', 2.5, TRUE), (2, 'y', 0.5, FALSE)";
      "INSERT INTO t (a, b) VALUES (3, 'z')";
      "DELETE FROM t WHERE a = 1";
      "UPDATE t SET b = 'w', c = 9.0 WHERE a = 2";
      "DROP TABLE t";
    ]
  in
  List.iter
    (fun src ->
      let s = Parser.parse_statement src in
      let printed = Ast.statement_to_string s in
      let s2 = Parser.parse_statement printed in
      Alcotest.(check string) src printed (Ast.statement_to_string s2))
    cases

let test_parse_errors () =
  List.iter
    (fun src ->
      match Parser.parse_statement src with
      | exception Parser.Parse_error _ -> ()
      | _ -> Alcotest.fail ("expected parse error: " ^ src))
    [
      "SELECT";
      "SELECT a FROM";
      "SELECT a FROM t WHERE";
      "FROB x";
      "SELECT a FROM t LIMIT x";
      "SELECT a FROM t trailing garbage here ,";
    ]

let test_like () =
  let cases =
    [
      ("abc", "abc", true);
      ("a%", "abc", true);
      ("%c", "abc", true);
      ("%b%", "abc", true);
      ("a_c", "abc", true);
      ("a_c", "abbc", false);
      ("%", "", true);
      ("", "", true);
      ("", "a", false);
      ("a%b%c", "aXXbYYc", true);
      ("a%b%c", "acb", false);
      ("%%", "anything", true);
      ("x%", "abc", false);
    ]
  in
  List.iter
    (fun (pattern, s, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "LIKE %s ~ %s" pattern s)
        expected
        (Compile.like_match_compiled (Compile.compile_like pattern) s))
    cases

let setup_db () =
  let db = Database.create () in
  List.iter
    (fun sql -> ignore (Executor.execute_sql db sql))
    [
      "CREATE TABLE emp (id INT, name TEXT, dept TEXT, salary INT)";
      "INSERT INTO emp VALUES (1, 'ada', 'eng', 120), (2, 'bob', 'eng', 100), \
       (3, 'cyd', 'ops', 90), (4, 'dan', 'ops', 80), (5, 'eve', 'mgmt', 150)";
      "CREATE TABLE dept (dname TEXT, floor INT)";
      "INSERT INTO dept VALUES ('eng', 3), ('ops', 1), ('mgmt', 5)";
    ];
  db

let select db sql =
  match Executor.execute_sql db sql with
  | Executor.Rows r -> r
  | _ -> Alcotest.fail "expected rows"

let test_select_where () =
  let db = setup_db () in
  let r = select db "SELECT name FROM emp WHERE salary >= 100" in
  Alcotest.(check int) "3 rows" 3 (Relation.cardinality r)

let test_select_expressions () =
  let db = setup_db () in
  let r = select db "SELECT salary * 2 AS double FROM emp WHERE id = 1" in
  Alcotest.(check bool) "doubled" true
    (Value.equal (Value.Int 240) (Relation.get r 0 "double"))

let test_join () =
  let db = setup_db () in
  let r =
    select db
      "SELECT e.name, d.floor FROM emp e, dept d WHERE e.dept = d.dname AND \
       d.floor >= 3"
  in
  Alcotest.(check int) "eng(2) + mgmt(1)" 3 (Relation.cardinality r)

let test_aggregates_single_group () =
  let db = setup_db () in
  let r = select db "SELECT COUNT(*), SUM(salary), AVG(salary), MIN(salary), MAX(salary) FROM emp" in
  Alcotest.(check bool) "count" true (Value.equal (Value.Int 5) (Relation.row r 0).(0));
  Alcotest.(check bool) "sum" true (Value.equal (Value.Int 540) (Relation.row r 0).(1));
  Alcotest.(check bool) "avg" true (Value.equal (Value.Float 108.0) (Relation.row r 0).(2));
  Alcotest.(check bool) "min" true (Value.equal (Value.Int 80) (Relation.row r 0).(3));
  Alcotest.(check bool) "max" true (Value.equal (Value.Int 150) (Relation.row r 0).(4))

let test_count_empty () =
  let db = setup_db () in
  let r = select db "SELECT COUNT(*) FROM emp WHERE salary > 1000" in
  Alcotest.(check bool) "zero" true (Value.equal (Value.Int 0) (Relation.row r 0).(0))

let test_group_by_having () =
  let db = setup_db () in
  let r =
    select db
      "SELECT dept, COUNT(*) AS n, SUM(salary) AS total FROM emp GROUP BY \
       dept HAVING COUNT(*) >= 2 ORDER BY total DESC"
  in
  Alcotest.(check int) "two groups" 2 (Relation.cardinality r);
  Alcotest.(check bool) "eng first (220)" true
    (Value.equal (Value.Str "eng") (Relation.get r 0 "dept"))

let test_order_limit () =
  let db = setup_db () in
  let r = select db "SELECT name FROM emp ORDER BY salary DESC LIMIT 2" in
  Alcotest.(check int) "2 rows" 2 (Relation.cardinality r);
  Alcotest.(check bool) "eve first" true
    (Value.equal (Value.Str "eve") (Relation.get r 0 "name"))

let test_distinct () =
  let db = setup_db () in
  let r = select db "SELECT DISTINCT dept FROM emp" in
  Alcotest.(check int) "3 depts" 3 (Relation.cardinality r)

let test_in_subquery () =
  let db = setup_db () in
  let r =
    select db
      "SELECT name FROM emp WHERE dept IN (SELECT dname FROM dept WHERE \
       floor = 1)"
  in
  Alcotest.(check int) "ops members" 2 (Relation.cardinality r)

let test_not_in_subquery () =
  let db = setup_db () in
  let r =
    select db
      "SELECT name FROM emp WHERE dept NOT IN (SELECT dname FROM dept WHERE \
       floor = 1)"
  in
  Alcotest.(check int) "non-ops" 3 (Relation.cardinality r)

let test_exists () =
  let db = setup_db () in
  let r =
    select db
      "SELECT name FROM emp WHERE EXISTS (SELECT dname FROM dept WHERE floor \
       > 10)"
  in
  Alcotest.(check int) "empty exists" 0 (Relation.cardinality r)

let test_between_and_like () =
  let db = setup_db () in
  let r =
    select db
      "SELECT name FROM emp WHERE salary BETWEEN 90 AND 120 AND name LIKE \
       '%a%'"
  in
  (* ada(120), dan(80 out), cyd(90, no 'a')... ada only? dan salary 80 is
     out of range; 'dan' has an a but 80 < 90. So ada. *)
  Alcotest.(check int) "ada" 1 (Relation.cardinality r)

let test_scalar_functions () =
  let db = setup_db () in
  let r =
    select db
      "SELECT UPPER(name) AS u, LENGTH(name) AS l, ABS(0 - salary) AS a FROM \
       emp WHERE id = 1"
  in
  Alcotest.(check bool) "upper" true (Value.equal (Value.Str "ADA") (Relation.get r 0 "u"));
  Alcotest.(check bool) "length" true (Value.equal (Value.Int 3) (Relation.get r 0 "l"));
  Alcotest.(check bool) "abs" true (Value.equal (Value.Int 120) (Relation.get r 0 "a"))

let test_insert_delete_update () =
  let db = setup_db () in
  (match Executor.execute_sql db "DELETE FROM emp WHERE dept = 'ops'" with
  | Executor.Affected 2 -> ()
  | _ -> Alcotest.fail "expected 2 deleted");
  (match Executor.execute_sql db "UPDATE emp SET salary = salary + 10 WHERE dept = 'eng'" with
  | Executor.Affected 2 -> ()
  | _ -> Alcotest.fail "expected 2 updated");
  let r = select db "SELECT SUM(salary) FROM emp" in
  (* 120+10 + 100+10 + 150 = 390 *)
  Alcotest.(check bool) "updated total" true
    (Value.equal (Value.Int 390) (Relation.row r 0).(0))

let test_insert_with_columns () =
  let db = setup_db () in
  ignore (Executor.execute_sql db "INSERT INTO emp (id, name) VALUES (9, 'zed')");
  let r = select db "SELECT dept FROM emp WHERE id = 9" in
  Alcotest.(check bool) "missing cols are null" true
    (Value.is_null (Relation.row r 0).(0))

let test_null_filtering () =
  let db = setup_db () in
  ignore (Executor.execute_sql db "INSERT INTO emp (id, name) VALUES (9, 'zed')");
  (* NULL salary comparisons are unknown -> filtered out *)
  let r = select db "SELECT name FROM emp WHERE salary > 0" in
  Alcotest.(check int) "null excluded" 5 (Relation.cardinality r);
  let r2 = select db "SELECT name FROM emp WHERE salary IS NULL" in
  Alcotest.(check int) "is null" 1 (Relation.cardinality r2)

let test_missing_table () =
  let db = setup_db () in
  match Executor.execute_sql db "SELECT * FROM nope" with
  | exception Executor.Eval_error _ -> ()
  | _ -> Alcotest.fail "expected eval error"

let test_csv_load () =
  let path = Filename.temp_file "pb_test" ".csv" in
  let oc = open_out path in
  output_string oc "id,name,score\n1,ada,3.5\n2,bob,\n";
  close_out oc;
  let db = Database.create () in
  Database.load_csv db ~name:"people" path;
  Sys.remove path;
  let r = select db "SELECT COUNT(*) FROM people" in
  Alcotest.(check bool) "2 rows" true (Value.equal (Value.Int 2) (Relation.row r 0).(0));
  let r2 = select db "SELECT score FROM people WHERE name = 'bob'" in
  Alcotest.(check bool) "empty is null" true (Value.is_null (Relation.row r2 0).(0))

let test_cartesian_growth () =
  (* The §4.2 complexity claim rests on products growing multiplicatively. *)
  let db = setup_db () in
  let r = select db "SELECT e1.id, e2.id FROM emp e1, emp e2" in
  Alcotest.(check int) "5x5" 25 (Relation.cardinality r);
  let r3 = select db "SELECT e1.id FROM emp e1, emp e2, emp e3" in
  Alcotest.(check int) "5^3" 125 (Relation.cardinality r3)

(* ---- prepared-plan cache ---------------------------------------------- *)

(* The cache's process-wide hit and miss counters, as the default
   metrics registry exposes them. *)
let plan_cache_counter name =
  int_of_float
    (List.assoc ("pb_sql_plan_cache_" ^ name ^ "_total")
       (Pb_obs.Metrics.snapshot ()))

let plan_cache_hits () = plan_cache_counter "hits"
let plan_cache_misses () = plan_cache_counter "misses"

let test_plan_cache_hit_and_normalize () =
  let db = setup_db () in
  let cache = Pb_sql.Plan_cache.create () in
  let h0 = plan_cache_hits () and m0 = plan_cache_misses () in
  let parse = Parser.parse_script in
  let s1, memo1 = Pb_sql.Plan_cache.lookup cache db ~parse "SELECT * FROM emp" in
  (* whitespace/trailing-semicolon variants share the entry... *)
  let s2, memo2 =
    Pb_sql.Plan_cache.lookup cache db ~parse "  SELECT * FROM emp; "
  in
  Alcotest.(check int) "one miss" 1 (plan_cache_misses () - m0);
  Alcotest.(check int) "one hit" 1 (plan_cache_hits () - h0);
  Alcotest.(check bool) "same statements" true (s1 == s2);
  Alcotest.(check bool) "same memo" true (memo1 == memo2);
  (* ...but interior whitespace is preserved (string literals) *)
  let _, memo3 =
    Pb_sql.Plan_cache.lookup cache db ~parse "SELECT  * FROM emp"
  in
  Alcotest.(check bool) "distinct entry" true (memo3 != memo1);
  let h1 = plan_cache_hits () in
  ignore (Pb_sql.Plan_cache.lookup cache db ~parse "SELECT * FROM emp");
  ignore (Pb_sql.Plan_cache.lookup cache db ~parse "SELECT  * FROM emp");
  Alcotest.(check int) "two entries" 2 (plan_cache_hits () - h1)

let test_plan_cache_ddl_invalidation () =
  let db = setup_db () in
  let cache = Pb_sql.Plan_cache.create () in
  let parse = Parser.parse_script in
  let v0 = Database.version db in
  let _, memo1 = Pb_sql.Plan_cache.lookup cache db ~parse "SELECT * FROM emp" in
  (* schema-preserving DML keeps the entry warm *)
  ignore (Executor.execute_sql db "INSERT INTO emp VALUES (9, 'zed', 'ops', 100)");
  Alcotest.(check int) "DML does not bump version" v0 (Database.version db);
  let h0 = plan_cache_hits () in
  let _, memo2 = Pb_sql.Plan_cache.lookup cache db ~parse "SELECT * FROM emp" in
  Alcotest.(check bool) "warm after DML" true (memo2 == memo1);
  Alcotest.(check int) "hit after DML" 1 (plan_cache_hits () - h0);
  (* DDL bumps the version and drops the stale entry *)
  ignore (Executor.execute_sql db "CREATE TABLE scratch (a INT)");
  Alcotest.(check bool) "DDL bumps version" true (Database.version db > v0);
  let m0 = plan_cache_misses () in
  let _, memo3 = Pb_sql.Plan_cache.lookup cache db ~parse "SELECT * FROM emp" in
  Alcotest.(check bool) "stale entry replaced" true (memo3 != memo1);
  Alcotest.(check int) "miss after DDL" 1 (plan_cache_misses () - m0);
  (* DROP TABLE and CREATE INDEX are DDL too *)
  let v1 = Database.version db in
  ignore (Executor.execute_sql db "DROP TABLE scratch");
  Alcotest.(check bool) "drop bumps" true (Database.version db > v1);
  let v2 = Database.version db in
  ignore (Executor.execute_sql db "CREATE INDEX ON emp (salary)");
  Alcotest.(check bool) "index bumps" true (Database.version db > v2)

let test_plan_cache_eviction () =
  let db = setup_db () in
  let cache = Pb_sql.Plan_cache.create ~capacity:2 () in
  let parse = Parser.parse_script in
  let lookup text = ignore (Pb_sql.Plan_cache.lookup cache db ~parse text) in
  lookup "SELECT id FROM emp";
  lookup "SELECT name FROM emp";
  (* touch the first so the second is the LRU victim *)
  lookup "SELECT id FROM emp";
  lookup "SELECT dept FROM emp";
  let h0 = plan_cache_hits () in
  lookup "SELECT id FROM emp";
  Alcotest.(check int) "recently-used survived" 1 (plan_cache_hits () - h0);
  lookup "SELECT dept FROM emp";
  Alcotest.(check int) "newest survived" 2 (plan_cache_hits () - h0);
  let m0 = plan_cache_misses () in
  lookup "SELECT name FROM emp";
  Alcotest.(check int) "LRU was evicted" 1 (plan_cache_misses () - m0)

let test_prepared_execution_matches_fresh () =
  let db = setup_db () in
  let cache = Pb_sql.Plan_cache.create () in
  let sql = "SELECT name, salary * 2 FROM emp WHERE salary >= 100 ORDER BY name" in
  let stmts, memo =
    Pb_sql.Plan_cache.lookup cache db ~parse:Parser.parse_script sql
  in
  let run () =
    List.map
      (fun stmt ->
        match Executor.execute ~memo db stmt with
        | Executor.Rows rel -> Relation.to_table rel
        | _ -> Alcotest.fail "expected rows")
      stmts
  in
  let fresh =
    match Executor.execute_sql db sql with
    | Executor.Rows rel -> Relation.to_table rel
    | _ -> Alcotest.fail "expected rows"
  in
  Alcotest.(check (list string)) "first prepared run" [ fresh ] (run ());
  Alcotest.(check (list string)) "repeat prepared run" [ fresh ] (run ())

(* GROUP BY, DISTINCT and set operations key rows by value: floats that
   differ past the sixth digit (where [Value.to_string] rounds) or past
   the twelfth (where [string_of_float] rounds) stay apart. *)
let test_keys_by_value () =
  let db = Database.create () in
  List.iter
    (fun sql -> ignore (Executor.execute_sql db sql))
    [
      "CREATE TABLE t (k FLOAT)";
      "INSERT INTO t VALUES (1.0000001), (1.0000002), (1.0000002)";
      "CREATE TABLE u (k FLOAT)";
      "INSERT INTO u VALUES (1000000000001.0), (1000000000002.0)";
    ];
  let count sql =
    match Executor.execute_sql db sql with
    | Executor.Rows rel -> Relation.cardinality rel
    | _ -> Alcotest.fail "expected rows"
  in
  let check_mode mode =
    let saved = Pb_store.Mode.current () in
    Pb_store.Mode.set mode;
    Fun.protect
      ~finally:(fun () -> Pb_store.Mode.set saved)
      (fun () ->
        let m = Pb_store.Mode.to_string mode in
        Alcotest.(check int) (m ^ ": GROUP BY groups") 2
          (count "SELECT k, COUNT(*) FROM t GROUP BY k");
        Alcotest.(check int) (m ^ ": one group of 2") 1
          (count "SELECT k FROM t GROUP BY k HAVING COUNT(*) = 2");
        Alcotest.(check int) (m ^ ": DISTINCT") 2 (count "SELECT DISTINCT k FROM u");
        Alcotest.(check int) (m ^ ": UNION") 2
          (count "SELECT k FROM u UNION SELECT k FROM u");
        Alcotest.(check int) (m ^ ": EXCEPT") 1
          (count
             "SELECT k FROM u EXCEPT SELECT k FROM u WHERE k < 1000000000001.5"))
  in
  check_mode Pb_store.Mode.Row;
  check_mode Pb_store.Mode.Columnar

(* ---- print/parse fixpoint over generated statements ------------------- *)

module Gen = QCheck.Gen

let ident_gen = Gen.oneofl [ "a"; "b"; "t.a"; "u.b"; "name" ]
let table_gen = Gen.oneofl [ "t"; "u"; "recipes" ]

(* Literals the parser produces: no negative numbers (those parse as a
   unary minus), floats among hard-to-print values and random bit
   patterns, strings with quotes and LIKE wildcards. *)
let lit_gen : Value.t Gen.t =
  let open Gen in
  let finite_nonneg =
    map
      (fun bits ->
        let f = Float.abs (Int64.float_of_bits bits) in
        if Float.is_finite f then f else 1.5)
      ui64
  in
  frequency
    [
      (1, return Value.Null);
      (1, map (fun b -> Value.Bool b) bool);
      (2, map (fun i -> Value.Int i) (oneof [ int_range 0 100; int_range 0 max_int ]));
      ( 4,
        map
          (fun f -> Value.Float f)
          (oneof
             [
               oneofl
                 [ 0.0; 3.0; 1.0000001; 123.45678; 0.1; 1e20; 1e-7; 5e-324;
                   2.2250738585072014e-308; 1e300; Float.max_float;
                   Float.infinity; 1000000000001.0 ];
               finite_nonneg;
             ]) );
      ( 3,
        map
          (fun s -> Value.Str s)
          (string_size ~gen:(oneofl [ 'a'; '\''; '%'; '_'; ' '; 'b' ]) (int_range 0 6))
      );
    ]

let binop_gen =
  Gen.oneofl
    Ast.[ Add; Sub; Mul; Div; Eq; Neq; Lt; Le; Gt; Ge; And; Or ]

let rec expr_gen n : Ast.expr Gen.t =
  let open Gen in
  let leaf =
    oneof
      [ map (fun v -> Ast.Lit v) lit_gen; map (fun c -> Ast.Col c) ident_gen ]
  in
  if n <= 0 then leaf
  else
    let sub = expr_gen (n / 2) in
    frequency
      [
        (3, leaf);
        (1, map (fun e -> Ast.Unary_minus e) sub);
        (1, map (fun e -> Ast.Not e) sub);
        (4, map3 (fun op a b -> Ast.Binop (op, a, b)) binop_gen sub sub);
        (1, map3 (fun a b c -> Ast.Between (a, b, c)) sub sub sub);
        ( 1,
          map3
            (fun e items neg -> Ast.In_list (e, items, neg))
            sub (list_size (int_range 1 3) sub) bool );
        (1, map2 (fun e neg -> Ast.Is_null (e, neg)) sub bool);
        ( 1,
          map3
            (fun e pat neg -> Ast.Like (e, pat, neg))
            sub
            (string_size ~gen:(oneofl [ 'a'; '\''; '%'; '_' ]) (int_range 0 4))
            bool );
        (1, return (Ast.Agg (Ast.Count_star, None)));
        ( 1,
          map2
            (fun f e -> Ast.Agg (f, Some e))
            (oneofl Ast.[ Count; Sum; Avg; Min; Max ])
            sub );
        ( 1,
          map2
            (fun f args -> Ast.Func (f, args))
            (oneofl [ "abs"; "lower"; "coalesce" ])
            (list_size (int_range 0 2) sub) );
        ( 1,
          map2
            (fun bs d -> Ast.Case (bs, d))
            (list_size (int_range 1 2) (pair sub sub))
            (opt sub) );
        ( 1,
          map2 (fun e neg -> Ast.In_query (e, simple_select, neg)) sub bool );
        (1, return (Ast.Exists simple_select));
      ]

and simple_select =
  {
    Ast.distinct = false;
    items = [ Ast.Expr_item (Ast.Col "a", None) ];
    from = [ { Ast.rel_name = "t"; alias = None } ];
    where = Some (Ast.Binop (Ast.Gt, Ast.Col "b", Ast.Lit (Value.Float 0.5)));
    group_by = [];
    having = None;
    order_by = [];
    limit = None;
    offset = None;
    compound = [];
  }

let select_gen ~compound : Ast.select Gen.t =
  let open Gen in
  let e = expr_gen 4 in
  let* distinct = bool in
  let* items =
    list_size (int_range 1 3)
      (frequency
         [
           (1, return Ast.Star_item);
           ( 4,
             map2
               (fun e a -> Ast.Expr_item (e, a))
               e (opt (oneofl [ "x"; "total" ])) );
         ])
  in
  let* from =
    list_size (int_range 1 2)
      (map2
         (fun rel_name alias -> { Ast.rel_name; alias })
         table_gen (opt (oneofl [ "p"; "q" ])))
  in
  let* where = opt e in
  let* group_by = list_size (int_range 0 2) e in
  let* having = opt e in
  let* order_by =
    list_size (int_range 0 2) (pair e (oneofl Ast.[ Asc; Desc ]))
  in
  let* limit = opt (int_range 0 50) in
  let* offset = opt (int_range 0 5) in
  let* compound =
    if compound then
      list_size (int_range 0 2)
        (pair
           (oneofl Ast.[ Union; Union_all; Intersect; Except ])
           (return simple_select))
    else return []
  in
  return
    {
      Ast.distinct; items; from; where; group_by; having; order_by; limit;
      offset; compound;
    }

let statement_gen : Ast.statement Gen.t =
  let open Gen in
  let e = expr_gen 4 in
  frequency
    [
      (4, map (fun q -> Ast.Select_stmt q) (select_gen ~compound:true));
      ( 2,
        map3
          (fun t cols rows -> Ast.Insert (t, cols, rows))
          table_gen
          (opt (return [ "a"; "b" ]))
          (list_size (int_range 1 3)
             (list_repeat 2 (map (fun v -> Ast.Lit v) lit_gen))) );
      ( 1,
        map3
          (fun t sets w -> Ast.Update (t, sets, w))
          table_gen
          (list_size (int_range 1 2) (pair (oneofl [ "a"; "b" ]) e))
          (opt e) );
      (1, map2 (fun t w -> Ast.Delete (t, w)) table_gen (opt e));
      ( 1,
        map2
          (fun t tys ->
            Ast.Create_table
              ( t,
                List.mapi
                  (fun i col_ty -> { Ast.col_name = Printf.sprintf "c%d" i; col_ty })
                  tys ))
          table_gen
          (list_size (int_range 1 3)
             (oneofl Value.[ T_int; T_float; T_str; T_bool ])) );
      (1, map (fun t -> Ast.Drop_table t) table_gen);
      (1, map (fun t -> Ast.Create_index { table = t; column = "a" }) table_gen);
    ]

(* Printing a parsed statement and parsing it back gives the same tree,
   and printing is then a fixpoint: the router forwards statements to
   shards as printed text, so nothing may change on the way — not a
   float digit, not a quote. *)
let prop_print_parse_fixpoint =
  QCheck.Test.make ~count:500 ~long_factor:10 ~name:"print/parse fixpoint"
    (QCheck.make ~print:Ast.statement_to_string statement_gen)
    (fun stmt ->
      let text = Ast.statement_to_string stmt in
      match Parser.parse_statement text with
      | exception Parser.Parse_error msg ->
          QCheck.Test.fail_reportf "%s\ndoes not parse: %s" text msg
      | exception Lexer.Lex_error (msg, _) ->
          QCheck.Test.fail_reportf "%s\ndoes not lex: %s" text msg
      | parsed ->
          let again = Ast.statement_to_string parsed in
          if again <> text then
            QCheck.Test.fail_reportf "printed:\n%s\nreprinted:\n%s" text again
          else if parsed <> stmt then
            QCheck.Test.fail_reportf "%s\nparses to a different tree" text
          else true)

let suite =
  [
    Alcotest.test_case "lexer basics" `Quick test_lexer_basics;
    Alcotest.test_case "lexer paql keywords" `Quick test_lexer_paql_keywords;
    Alcotest.test_case "lexer error position" `Quick test_lexer_error;
    Alcotest.test_case "parser roundtrip" `Quick test_parse_roundtrip;
    Alcotest.test_case "parser statements" `Quick test_parse_statements;
    Alcotest.test_case "parser errors" `Quick test_parse_errors;
    Alcotest.test_case "like matcher" `Quick test_like;
    Alcotest.test_case "select where" `Quick test_select_where;
    Alcotest.test_case "select expressions" `Quick test_select_expressions;
    Alcotest.test_case "join" `Quick test_join;
    Alcotest.test_case "aggregates single group" `Quick test_aggregates_single_group;
    Alcotest.test_case "count empty" `Quick test_count_empty;
    Alcotest.test_case "group by + having" `Quick test_group_by_having;
    Alcotest.test_case "order by + limit" `Quick test_order_limit;
    Alcotest.test_case "distinct" `Quick test_distinct;
    Alcotest.test_case "in subquery" `Quick test_in_subquery;
    Alcotest.test_case "not in subquery" `Quick test_not_in_subquery;
    Alcotest.test_case "exists" `Quick test_exists;
    Alcotest.test_case "between + like" `Quick test_between_and_like;
    Alcotest.test_case "scalar functions" `Quick test_scalar_functions;
    Alcotest.test_case "insert/delete/update" `Quick test_insert_delete_update;
    Alcotest.test_case "insert with columns" `Quick test_insert_with_columns;
    Alcotest.test_case "null filtering" `Quick test_null_filtering;
    Alcotest.test_case "missing table" `Quick test_missing_table;
    Alcotest.test_case "csv load + inference" `Quick test_csv_load;
    Alcotest.test_case "cartesian growth" `Quick test_cartesian_growth;
    Alcotest.test_case "plan cache hit + normalization" `Quick
      test_plan_cache_hit_and_normalize;
    Alcotest.test_case "plan cache DDL invalidation" `Quick
      test_plan_cache_ddl_invalidation;
    Alcotest.test_case "plan cache LRU eviction" `Quick
      test_plan_cache_eviction;
    Alcotest.test_case "prepared execution matches fresh" `Quick
      test_prepared_execution_matches_fresh;
    Alcotest.test_case "GROUP BY, DISTINCT and set ops key by value" `Quick
      test_keys_by_value;
    QCheck_alcotest.to_alcotest prop_print_parse_fixpoint;
  ]
