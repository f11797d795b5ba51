(* Tests for the new SQL surface (CASE, set operations, OFFSET, indexes)
   and the query planner (pushdown, index scans, hash joins), including a
   planner-vs-naive equivalence property. *)

module Parser = Pb_sql.Parser
module Ast = Pb_sql.Ast
module Executor = Pb_sql.Executor
module Database = Pb_sql.Database
module Planner = Pb_sql.Planner
module Index = Pb_sql.Index
module Value = Pb_relation.Value
module Relation = Pb_relation.Relation
module Schema = Pb_relation.Schema

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

let test_case_expression () =
  let db = setup_db () in
  let r =
    select db
      "SELECT name, CASE WHEN salary >= 120 THEN 'high' WHEN salary >= 90 \
       THEN 'mid' ELSE 'low' END AS band FROM emp ORDER BY id"
  in
  let bands =
    List.map (fun row -> Value.to_string row.(1)) (Relation.to_list r)
  in
  Alcotest.(check (list string)) "bands"
    [ "high"; "mid"; "mid"; "low"; "high" ]
    bands

let test_case_no_else_is_null () =
  let db = setup_db () in
  let r =
    select db
      "SELECT CASE WHEN salary > 1000 THEN 1 END AS x FROM emp WHERE id = 1"
  in
  Alcotest.(check bool) "null" true (Value.is_null (Relation.row r 0).(0))

let test_case_in_aggregate () =
  (* CASE inside SUM: counts conditional values — the idiom the vacation
     scenario could use instead of indicator columns. *)
  let db = setup_db () in
  let r =
    select db
      "SELECT SUM(CASE WHEN dept = 'eng' THEN salary ELSE 0 END) AS engsal \
       FROM emp"
  in
  Alcotest.(check bool) "220" true
    (Value.equal (Value.Int 220) (Relation.row r 0).(0))

let test_case_roundtrip () =
  let src =
    "SELECT CASE WHEN a > 1 THEN 'x' ELSE 'y' END FROM t"
  in
  let printed = Ast.select_to_string (Parser.parse_select src) in
  Alcotest.(check string) "fixpoint" printed
    (Ast.select_to_string (Parser.parse_select printed))

let test_union () =
  let db = setup_db () in
  let r =
    select db
      "SELECT dept FROM emp WHERE salary > 100 UNION SELECT dname FROM dept \
       WHERE floor = 1"
  in
  (* eng(120), mgmt(150) + ops = 3 distinct *)
  Alcotest.(check int) "3 rows" 3 (Relation.cardinality r)

let test_union_all_keeps_duplicates () =
  let db = setup_db () in
  let r =
    select db "SELECT dept FROM emp UNION ALL SELECT dname FROM dept"
  in
  Alcotest.(check int) "5 + 3" 8 (Relation.cardinality r)

let test_intersect_except () =
  let db = setup_db () in
  let r =
    select db
      "SELECT dept FROM emp INTERSECT SELECT dname FROM dept WHERE floor <= 3"
  in
  Alcotest.(check int) "eng, ops" 2 (Relation.cardinality r);
  let r2 =
    select db
      "SELECT dname FROM dept EXCEPT SELECT dept FROM emp WHERE salary < 145"
  in
  (* emp below 145: eng, ops -> remaining dept: mgmt *)
  Alcotest.(check int) "mgmt" 1 (Relation.cardinality r2);
  Alcotest.(check bool) "is mgmt" true
    (Value.equal (Value.Str "mgmt") (Relation.row r2 0).(0))

let test_set_op_numeric_equivalence () =
  let db = Database.create () in
  ignore (Executor.execute_sql db "CREATE TABLE a (x INT)");
  ignore (Executor.execute_sql db "INSERT INTO a VALUES (1), (2)");
  ignore (Executor.execute_sql db "CREATE TABLE b (x FLOAT)");
  ignore (Executor.execute_sql db "INSERT INTO b VALUES (1.0), (3.5)");
  let r = select db "SELECT x FROM a UNION SELECT x FROM b" in
  (* 1 and 1.0 dedup to a single row *)
  Alcotest.(check int) "3 distinct" 3 (Relation.cardinality r)

let test_set_op_arity_mismatch () =
  let db = setup_db () in
  match
    Executor.execute_sql db "SELECT id, name FROM emp UNION SELECT dname FROM dept"
  with
  | exception Executor.Eval_error _ -> ()
  | _ -> Alcotest.fail "expected arity error"

let test_offset () =
  let db = setup_db () in
  let r =
    select db "SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 2"
  in
  Alcotest.(check int) "2 rows" 2 (Relation.cardinality r);
  Alcotest.(check bool) "starts at 3" true
    (Value.equal (Value.Int 3) (Relation.row r 0).(0))

let test_index_module () =
  let rel =
    Relation.create
      (Schema.make [ { Schema.name = "k"; ty = Value.T_int } ])
      (List.map (fun i -> [| Value.Int i |]) [ 5; 3; 8; 3; 1; Int.max_int ])
  in
  let idx = Index.build rel "k" in
  let lookup v = Index.range ~lo:(v, true) ~hi:(v, true) idx in
  Alcotest.(check int) "cardinality" 6 (List.length (Index.range idx));
  Alcotest.(check (list int)) "lookup 3" [ 1; 3 ] (lookup (Value.Int 3));
  Alcotest.(check (list int)) "lookup miss" [] (lookup (Value.Int 4));
  let in_range =
    Index.range ~lo:(Value.Int 3, true) ~hi:(Value.Int 5, true) idx
  in
  Alcotest.(check (list int)) "range [3,5]" [ 1; 3; 0 ] in_range;
  let above =
    Index.range ~lo:(Value.Int 5, false) idx
  in
  Alcotest.(check int) "exclusive lower" 2 (List.length above)

let test_index_skips_nulls () =
  let rel =
    Relation.create
      (Schema.make [ { Schema.name = "k"; ty = Value.T_int } ])
      [ [| Value.Int 1 |]; [| Value.Null |]; [| Value.Int 2 |] ]
  in
  let idx = Index.build rel "k" in
  Alcotest.(check int) "nulls excluded" 2 (List.length (Index.range idx))

let test_create_index_sql () =
  let db = setup_db () in
  (match Executor.execute_sql db "CREATE INDEX ON emp (salary)" with
  | Executor.Created -> ()
  | _ -> Alcotest.fail "expected Created");
  Alcotest.(check (list string)) "declared" [ "salary" ]
    (Database.indexed_columns db "emp");
  (* queries still give correct answers through the index scan *)
  let r = select db "SELECT name FROM emp WHERE salary >= 100" in
  Alcotest.(check int) "3 rows" 3 (Relation.cardinality r);
  (* index survives until the table changes, then rebuilds *)
  ignore (Executor.execute_sql db "INSERT INTO emp VALUES (6, 'fay', 'eng', 130)");
  let r2 = select db "SELECT name FROM emp WHERE salary >= 100" in
  Alcotest.(check int) "4 rows after insert" 4 (Relation.cardinality r2)

let test_create_index_missing () =
  let db = setup_db () in
  match Executor.execute_sql db "CREATE INDEX ON emp (nope)" with
  | exception Executor.Eval_error _ -> ()
  | _ -> Alcotest.fail "expected error"

let plan db sql =
  let q = Parser.parse_select sql in
  Planner.execute db ~compile:(Executor.compile db) ~from:q.Ast.from
    ~where:q.Ast.where

let test_planner_uses_index () =
  let db = setup_db () in
  ignore (Executor.execute_sql db "CREATE INDEX ON emp (salary)");
  let _, stats = plan db "SELECT * FROM emp WHERE salary BETWEEN 90 AND 120" in
  Alcotest.(check int) "index scan" 1 stats.Planner.index_scans

let test_planner_hash_join () =
  let db = setup_db () in
  let rel, stats =
    plan db "SELECT * FROM emp e, dept d WHERE e.dept = d.dname AND d.floor > 1"
  in
  Alcotest.(check int) "hash join" 1 stats.Planner.hash_joins;
  Alcotest.(check int) "no product" 0 stats.Planner.nested_products;
  (* eng(2 emps, floor 3) + mgmt(1, floor 5) *)
  Alcotest.(check int) "3 rows" 3 (Relation.cardinality rel)

let test_planner_falls_back_to_product () =
  let db = setup_db () in
  let _, stats =
    plan db "SELECT * FROM emp e, dept d WHERE e.salary > d.floor * 20"
  in
  Alcotest.(check int) "product" 1 stats.Planner.nested_products;
  Alcotest.(check int) "no hash join" 0 stats.Planner.hash_joins

let test_planner_matches_naive () =
  (* Randomized equivalence: planner output = naive product+filter. *)
  let rng = Pb_util.Prng.create 2024 in
  for _trial = 1 to 40 do
    let db = Database.create () in
    let n1 = Pb_util.Prng.int_in rng 1 8 and n2 = Pb_util.Prng.int_in rng 1 8 in
    ignore (Executor.execute_sql db "CREATE TABLE t1 (a INT, b INT)");
    ignore (Executor.execute_sql db "CREATE TABLE t2 (c INT, d INT)");
    for _ = 1 to n1 do
      ignore
        (Executor.execute_sql db
           (Printf.sprintf "INSERT INTO t1 VALUES (%d, %d)"
              (Pb_util.Prng.int rng 4) (Pb_util.Prng.int rng 10)))
    done;
    for _ = 1 to n2 do
      ignore
        (Executor.execute_sql db
           (Printf.sprintf "INSERT INTO t2 VALUES (%d, %d)"
              (Pb_util.Prng.int rng 4) (Pb_util.Prng.int rng 10)))
    done;
    ignore (Executor.execute_sql db "CREATE INDEX ON t1 (b)");
    let where_variants =
      [|
        "t1.a = t2.c";
        "t1.a = t2.c AND t1.b <= 5";
        "t1.b >= 3 AND t2.d < 8";
        "t1.a = t2.c AND t1.b + t2.d < 12";
        "t1.b BETWEEN 2 AND 7";
        "t1.a < t2.c OR t1.b = t2.d";
      |]
    in
    let where = Pb_util.Prng.choice rng where_variants in
    let sql = "SELECT * FROM t1, t2 WHERE " ^ where in
    let q = Parser.parse_select sql in
    let compile = Executor.compile db in
    let planned, _ =
      Planner.execute db ~compile ~from:q.Ast.from ~where:q.Ast.where
    in
    let naive = Planner.naive db ~compile ~from:q.Ast.from ~where:q.Ast.where in
    let canon rel =
      List.sort compare
        (List.map
           (fun row -> Array.to_list (Array.map Value.to_string row))
           (Relation.to_list rel))
    in
    Alcotest.(check (list (list string))) ("equivalent: " ^ where)
      (canon naive) (canon planned)
  done

let test_planner_pushdown_counts () =
  let db = setup_db () in
  let _, stats =
    plan db
      "SELECT * FROM emp e, dept d WHERE e.dept = d.dname AND e.salary > 90 \
       AND d.floor < 4"
  in
  Alcotest.(check bool) "pushed two single-table predicates" true
    (stats.Planner.pushed_predicates >= 2)

let suite =
  [
    Alcotest.test_case "case expression" `Quick test_case_expression;
    Alcotest.test_case "case without else" `Quick test_case_no_else_is_null;
    Alcotest.test_case "case in aggregate" `Quick test_case_in_aggregate;
    Alcotest.test_case "case roundtrip" `Quick test_case_roundtrip;
    Alcotest.test_case "union" `Quick test_union;
    Alcotest.test_case "union all" `Quick test_union_all_keeps_duplicates;
    Alcotest.test_case "intersect/except" `Quick test_intersect_except;
    Alcotest.test_case "set-op numeric equivalence" `Quick
      test_set_op_numeric_equivalence;
    Alcotest.test_case "set-op arity mismatch" `Quick test_set_op_arity_mismatch;
    Alcotest.test_case "offset" `Quick test_offset;
    Alcotest.test_case "index module" `Quick test_index_module;
    Alcotest.test_case "index skips nulls" `Quick test_index_skips_nulls;
    Alcotest.test_case "create index (sql)" `Quick test_create_index_sql;
    Alcotest.test_case "create index missing column" `Quick
      test_create_index_missing;
    Alcotest.test_case "planner uses index" `Quick test_planner_uses_index;
    Alcotest.test_case "planner hash join" `Quick test_planner_hash_join;
    Alcotest.test_case "planner product fallback" `Quick
      test_planner_falls_back_to_product;
    Alcotest.test_case "planner = naive (randomized)" `Quick
      test_planner_matches_naive;
    Alcotest.test_case "planner pushdown" `Quick test_planner_pushdown_counts;
  ]
