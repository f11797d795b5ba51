(* Edge cases and failure injection across the stack: degenerate sizes,
   graceful errors on malformed input, and semantic corner cases. *)

module Parser = Pb_paql.Parser
module Executor = Pb_sql.Executor
module Database = Pb_sql.Database
module Engine = Pb_core.Engine
module Semantics = Pb_paql.Semantics
module Value = Pb_relation.Value
module Relation = Pb_relation.Relation
module Schema = Pb_relation.Schema
module Model = Pb_lp.Model

let db_with rows =
  let db = Database.create () in
  Database.put db "t"
    (Relation.create
       (Schema.make
          [
            { Schema.name = "v"; ty = Value.T_int };
            { Schema.name = "w"; ty = Value.T_int };
          ])
       (List.map (fun (v, w) -> [| Value.Int v; Value.Int w |]) rows));
  db

let all_strategies =
  [
    Engine.Brute_force { use_pruning = true };
    Engine.Brute_force { use_pruning = false };
    Engine.Ilp;
    Engine.Local_search Pb_core.Local_search.default_params;
    Engine.Sql_generation Pb_core.Sql_generate.default_params;
    Engine.Sketch_refine Pb_core.Sketch_refine.default_params;
    Engine.Hybrid;
  ]

(* ---- degenerate sizes --------------------------------------------------- *)

let test_empty_table_all_strategies () =
  let db = db_with [] in
  let query =
    Parser.parse "SELECT PACKAGE(t) AS p FROM t SUCH THAT COUNT(*) = 1"
  in
  List.iter
    (fun strategy ->
      let r = Engine.run ~strategy db query in
      Alcotest.(check bool)
        (Engine.strategy_name strategy)
        true
        (r.Engine.package = None))
    all_strategies

let test_single_row_table () =
  let db = db_with [ (5, 2) ] in
  let query =
    Parser.parse
      "SELECT PACKAGE(t) AS p FROM t SUCH THAT COUNT(*) = 1 MAXIMIZE SUM(p.v)"
  in
  List.iter
    (fun strategy ->
      let r = Engine.run ~strategy db query in
      match r.Engine.package with
      | Some pkg ->
          Alcotest.(check int)
            (Engine.strategy_name strategy)
            1
            (Pb_paql.Package.cardinality pkg)
      | None ->
          (* heuristics are allowed to miss, exact strategies are not *)
          if
            List.mem (Engine.strategy_name strategy)
              [
                "brute-force"; "brute-force+pruning"; "ilp"; "sql-generation";
                "sketch-refine"; "hybrid";
              ]
          then Alcotest.fail (Engine.strategy_name strategy ^ " missed"))
    all_strategies

let test_repeat_zero_equals_absent () =
  let db = db_with [ (1, 1); (2, 2) ] in
  let q1 =
    Parser.parse "SELECT PACKAGE(t) AS p FROM t REPEAT 0 SUCH THAT COUNT(*) = 2"
  in
  let q2 = Parser.parse "SELECT PACKAGE(t) AS p FROM t SUCH THAT COUNT(*) = 2" in
  Alcotest.(check int) "same multiplicity" (Pb_paql.Ast.max_multiplicity q1)
    (Pb_paql.Ast.max_multiplicity q2);
  let r1 = Engine.run db q1 and r2 = Engine.run db q2 in
  Alcotest.(check bool) "same feasibility" (r1.Engine.package <> None)
    (r2.Engine.package <> None)

let test_all_tuples_package () =
  (* COUNT = n selects everything. *)
  let db = db_with [ (1, 1); (2, 2); (3, 3) ] in
  let query =
    Parser.parse "SELECT PACKAGE(t) AS p FROM t SUCH THAT COUNT(*) = 3"
  in
  match (Engine.run db query).Engine.package with
  | Some pkg -> Alcotest.(check int) "all" 3 (Pb_paql.Package.cardinality pkg)
  | None -> Alcotest.fail "expected the full relation"

(* ---- graceful SQL errors ------------------------------------------------- *)

let test_nested_aggregate_rejected () =
  let db = db_with [ (1, 1) ] in
  match Executor.execute_sql db "SELECT SUM(SUM(v)) FROM t" with
  | exception Executor.Eval_error _ -> ()
  | _ -> Alcotest.fail "nested aggregate should fail"

let test_unknown_column_message () =
  let db = db_with [ (1, 1) ] in
  match Executor.execute_sql db "SELECT nope FROM t" with
  | exception Failure msg ->
      Alcotest.(check bool) "mentions column" true
        (String.length msg > 0)
  | exception Executor.Eval_error _ -> ()
  | _ -> Alcotest.fail "unknown column should fail"

let test_division_by_zero_projection () =
  let db = db_with [ (1, 0) ] in
  match Executor.execute_sql db "SELECT v / w AS q FROM t" with
  | Executor.Rows rel ->
      Alcotest.(check bool) "NULL result" true
        (Value.is_null (Relation.row rel 0).(0))
  | _ -> Alcotest.fail "expected rows"

let test_limit_zero_and_big_offset () =
  let db = db_with [ (1, 1); (2, 2) ] in
  (match Executor.execute_sql db "SELECT v FROM t LIMIT 0" with
  | Executor.Rows rel -> Alcotest.(check int) "limit 0" 0 (Relation.cardinality rel)
  | _ -> Alcotest.fail "rows");
  match Executor.execute_sql db "SELECT v FROM t OFFSET 10" with
  | Executor.Rows rel -> Alcotest.(check int) "offset 10" 0 (Relation.cardinality rel)
  | _ -> Alcotest.fail "rows"

let test_group_by_expression () =
  let db = db_with [ (1, 1); (2, 1); (3, 2) ] in
  match Executor.execute_sql db "SELECT w * 10, COUNT(*) FROM t GROUP BY w * 10" with
  | Executor.Rows rel -> Alcotest.(check int) "two groups" 2 (Relation.cardinality rel)
  | _ -> Alcotest.fail "rows"

let test_having_without_group_by () =
  let db = db_with [ (1, 1); (2, 2) ] in
  match Executor.execute_sql db "SELECT COUNT(*) FROM t HAVING COUNT(*) > 5" with
  | Executor.Rows rel -> Alcotest.(check int) "filtered out" 0 (Relation.cardinality rel)
  | _ -> Alcotest.fail "rows"

let test_string_with_quotes_roundtrip () =
  let db = Database.create () in
  ignore (Executor.execute_sql db "CREATE TABLE s (x TEXT)");
  ignore (Executor.execute_sql db "INSERT INTO s VALUES ('it''s ok')");
  match Executor.execute_sql db "SELECT x FROM s WHERE x = 'it''s ok'" with
  | Executor.Rows rel -> Alcotest.(check int) "found" 1 (Relation.cardinality rel)
  | _ -> Alcotest.fail "rows"

(* ---- PaQL corner cases ---------------------------------------------------- *)

let test_conflicting_constraints_proven_infeasible () =
  let db = db_with [ (1, 1); (2, 2); (3, 3) ] in
  let query =
    Parser.parse
      "SELECT PACKAGE(t) AS p FROM t SUCH THAT COUNT(*) = 2 AND COUNT(*) = 3"
  in
  let r = Engine.run db query in
  Alcotest.(check bool) "no package" true (r.Engine.package = None);
  Alcotest.(check bool) "proven" true (r.Engine.proof = Engine.Infeasible)

let test_negative_values_in_sums () =
  let db = Database.create () in
  Database.put db "t"
    (Relation.create
       (Schema.make [ { Schema.name = "x"; ty = Value.T_int } ])
       [ [| Value.Int (-5) |]; [| Value.Int 3 |]; [| Value.Int (-2) |] ]);
  let query =
    Parser.parse
      "SELECT PACKAGE(t) AS p FROM t SUCH THAT SUM(p.x) <= -6 MAXIMIZE COUNT(*)"
  in
  (* valid: {-5,-2} sum -7; {-5,-2,3} sum -4 invalid *)
  let bf =
    Engine.run ~strategy:(Engine.Brute_force { use_pruning = true }) db query
  in
  let ilp = Engine.run ~strategy:Engine.Ilp db query in
  (match (bf.Engine.objective, ilp.Engine.objective) with
  | Some a, Some b -> Alcotest.(check (float 1e-9)) "agree" a b
  | _ -> Alcotest.fail "expected packages");
  match bf.Engine.package with
  | Some pkg ->
      Alcotest.(check bool) "valid" true (Semantics.is_valid ~db query pkg)
  | None -> Alcotest.fail "expected"

let test_strict_inequalities () =
  let db = db_with [ (10, 2); (20, 3); (30, 4) ] in
  let query =
    Parser.parse
      "SELECT PACKAGE(t) AS p FROM t SUCH THAT COUNT(*) = 2 AND SUM(p.w) < 7 \
       AND SUM(p.w) > 5 MAXIMIZE SUM(p.v)"
  in
  (* sums of pairs: 5 (2+3), 6 (2+4), 7 (3+4): only 6 qualifies strictly *)
  let bf =
    Engine.run ~strategy:(Engine.Brute_force { use_pruning = true }) db query
  in
  let ilp = Engine.run ~strategy:Engine.Ilp db query in
  (match bf.Engine.package with
  | Some pkg ->
      Alcotest.(check (float 1e-9)) "w sum 6" 6.0 (Pb_paql.Package.sum_column pkg "w")
  | None -> Alcotest.fail "bf missed");
  match (bf.Engine.objective, ilp.Engine.objective) with
  | Some a, Some b -> Alcotest.(check (float 1e-6)) "agree" a b
  | _ -> Alcotest.fail "expected objectives"

let test_objective_count_star () =
  let db = db_with [ (1, 1); (2, 2); (3, 3) ] in
  let query =
    Parser.parse
      "SELECT PACKAGE(t) AS p FROM t SUCH THAT SUM(p.w) <= 4 MAXIMIZE COUNT(*)"
  in
  (* best: {1,3} or {1,2}: cardinality 2 *)
  match Engine.run ~strategy:Engine.Ilp db query with
  | { Engine.objective = Some v; _ } -> Alcotest.(check (float 1e-9)) "2" 2.0 v
  | _ -> Alcotest.fail "expected"

let test_case_in_paql_objective () =
  (* CASE gives per-tuple conditional weights inside SUM: linearizable
     because the argument is still a per-tuple expression. *)
  let db = db_with [ (1, 1); (2, 2); (3, 3) ] in
  let query =
    Parser.parse
      "SELECT PACKAGE(t) AS p FROM t SUCH THAT COUNT(*) = 2 MAXIMIZE SUM(CASE \
       WHEN p.w >= 2 THEN p.v ELSE 0 END)"
  in
  let c = Pb_core.Coeffs.make db query in
  (match c.Pb_core.Coeffs.objective with
  | Some (Some _) -> ()
  | _ -> Alcotest.fail "CASE objective should be linear");
  let bf =
    Engine.run ~strategy:(Engine.Brute_force { use_pruning = true }) db query
  in
  let ilp = Engine.run ~strategy:Engine.Ilp db query in
  match (bf.Engine.objective, ilp.Engine.objective) with
  | Some a, Some b ->
      Alcotest.(check (float 1e-6)) "agree" a b;
      (* {2,3}: 2 + 3 -> v 2+3 = 5 *)
      Alcotest.(check (float 1e-6)) "value" 5.0 a
  | _ -> Alcotest.fail "expected objectives"

(* ---- LP corner cases ------------------------------------------------------ *)

let test_lp_empty_model () =
  let m = Model.create () in
  Model.set_objective m (Model.Maximize []);
  let s = Pb_lp.Simplex.solve m in
  Alcotest.(check bool) "optimal" true (s.Pb_lp.Simplex.status = Pb_lp.Simplex.Optimal);
  Alcotest.(check (float 1e-9)) "objective 0" 0.0 s.Pb_lp.Simplex.objective

let test_lp_variable_no_constraints () =
  let m = Model.create () in
  let x = Model.add_var m ~upper:3.0 "x" in
  Model.set_objective m (Model.Maximize [ (2.0, x) ]);
  let s = Pb_lp.Simplex.solve m in
  Alcotest.(check (float 1e-9)) "at upper bound" 6.0 s.Pb_lp.Simplex.objective

let test_milp_budget_returns_feasible () =
  (* A tiny node budget still yields a usable answer when one exists. *)
  let m = Model.create () in
  let vars =
    Array.init 10 (fun i ->
        Model.add_var m ~integer:true ~upper:1.0 (Printf.sprintf "x%d" i))
  in
  Model.add_constr m
    (Array.to_list (Array.mapi (fun i v -> (float_of_int (i + 1), v)) vars))
    Model.Le 17.0;
  Model.set_objective m
    (Model.Maximize
       (Array.to_list (Array.mapi (fun i v -> (float_of_int (10 - i), v)) vars)));
  let s = Pb_lp.Milp.solve ~gov:(Pb_util.Gov.create ~milp_nodes:1 ()) m in
  Alcotest.(check bool) "not optimal status" true
    (s.Pb_lp.Milp.status = Pb_lp.Milp.Feasible
    || s.Pb_lp.Milp.status = Pb_lp.Milp.Optimal)

(* ---- misc ------------------------------------------------------------------ *)

let test_csv_malformed_row () =
  let path = Filename.temp_file "pb_bad" ".csv" in
  let oc = open_out path in
  output_string oc "a,b\n1,2\n3\n";
  close_out oc;
  let db = Database.create () in
  (match Database.load_csv db ~name:"bad" path with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "expected arity failure");
  Sys.remove path

let test_workload_tiny_sizes () =
  let r = Pb_workload.Workload.recipes ~seed:1 ~n:0 () in
  Alcotest.(check int) "empty ok" 0 (Relation.cardinality r);
  let r1 = Pb_workload.Workload.recipes ~seed:1 ~n:1 () in
  Alcotest.(check int) "single ok" 1 (Relation.cardinality r1)

let suite =
  [
    Alcotest.test_case "empty table, all strategies" `Quick
      test_empty_table_all_strategies;
    Alcotest.test_case "single-row table" `Quick test_single_row_table;
    Alcotest.test_case "REPEAT 0 = absent" `Quick test_repeat_zero_equals_absent;
    Alcotest.test_case "whole-relation package" `Quick test_all_tuples_package;
    Alcotest.test_case "nested aggregate rejected" `Quick
      test_nested_aggregate_rejected;
    Alcotest.test_case "unknown column" `Quick test_unknown_column_message;
    Alcotest.test_case "division by zero is NULL" `Quick
      test_division_by_zero_projection;
    Alcotest.test_case "limit 0 / big offset" `Quick test_limit_zero_and_big_offset;
    Alcotest.test_case "group by expression" `Quick test_group_by_expression;
    Alcotest.test_case "having without group by" `Quick
      test_having_without_group_by;
    Alcotest.test_case "escaped quotes" `Quick test_string_with_quotes_roundtrip;
    Alcotest.test_case "conflicting constraints proven infeasible" `Quick
      test_conflicting_constraints_proven_infeasible;
    Alcotest.test_case "negative values in sums" `Quick test_negative_values_in_sums;
    Alcotest.test_case "strict inequalities" `Quick test_strict_inequalities;
    Alcotest.test_case "MAXIMIZE COUNT(*)" `Quick test_objective_count_star;
    Alcotest.test_case "CASE inside SUM objective" `Quick test_case_in_paql_objective;
    Alcotest.test_case "lp: empty model" `Quick test_lp_empty_model;
    Alcotest.test_case "lp: unconstrained bounded var" `Quick
      test_lp_variable_no_constraints;
    Alcotest.test_case "milp: tiny budget still feasible" `Quick
      test_milp_budget_returns_feasible;
    Alcotest.test_case "csv malformed row" `Quick test_csv_malformed_row;
    Alcotest.test_case "workload tiny sizes" `Quick test_workload_tiny_sizes;
  ]
