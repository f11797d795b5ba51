(* Tests for stored packages (§2 point (a)) and PaQL auto-suggest
   (Figure 1). *)

module Parser = Pb_paql.Parser
module Package = Pb_paql.Package
module Store = Pb_paql.Package_store
module Complete = Pb_explore.Complete
module Engine = Pb_core.Engine
module Value = Pb_relation.Value
module Relation = Pb_relation.Relation

let demo_db () =
  let db = Pb_sql.Database.create () in
  Pb_workload.Workload.install ~seed:9 ~recipes_n:50 ~destinations:2
    ~stocks_n:20 db;
  db

let meal_query =
  "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' SUCH THAT \
   COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 MAXIMIZE \
   SUM(P.protein)"

let solved db =
  let query = Parser.parse meal_query in
  match (Engine.run db query).Engine.package with
  | Some pkg -> (query, pkg)
  | None -> Alcotest.fail "no package to store"

let test_save_and_list () =
  let db = demo_db () in
  let query, pkg = solved db in
  Store.save db ~name:"MealPlan" ~query pkg;
  match Store.list_saved db with
  | [ entry ] ->
      Alcotest.(check string) "lower-cased" "mealplan" entry.Store.name;
      Alcotest.(check int) "cardinality" 3 entry.Store.cardinality;
      Alcotest.(check string) "source" "recipes" entry.Store.source_relation;
      (* the stored query text reparses *)
      ignore (Parser.parse entry.Store.query_text)
  | other -> Alcotest.fail (Printf.sprintf "expected 1 entry, got %d" (List.length other))

let test_saved_package_queryable_by_sql () =
  (* The paper's point: packages are data objects the DBMS can query. *)
  let db = demo_db () in
  let query, pkg = solved db in
  Store.save db ~name:"mealplan" ~query pkg;
  match
    Pb_sql.Executor.execute_sql db
      "SELECT COUNT(*), SUM(calories) FROM pkg_mealplan"
  with
  | Pb_sql.Executor.Rows rel ->
      Alcotest.(check bool) "count 3" true
        (Value.equal (Value.Int 3) (Relation.row rel 0).(0));
      let total = Option.get (Value.to_float (Relation.row rel 0).(1)) in
      Alcotest.(check bool) "calories within window" true
        (total >= 2000.0 && total <= 2500.0)
  | _ -> Alcotest.fail "expected rows"

let test_save_overwrites () =
  let db = demo_db () in
  let query, pkg = solved db in
  Store.save db ~name:"x" ~query pkg;
  Store.save db ~name:"x" ~query pkg;
  Alcotest.(check int) "one entry" 1 (List.length (Store.list_saved db))

let test_load_and_delete () =
  let db = demo_db () in
  let query, pkg = solved db in
  Store.save db ~name:"trip" ~query pkg;
  (match (Store.list_saved db, Pb_sql.Database.find db "pkg_trip") with
  | [ entry ], Some rows ->
      Alcotest.(check int) "rows = cardinality" entry.Store.cardinality
        (Relation.cardinality rows)
  | _ -> Alcotest.fail "expected the saved package and its data table");
  Alcotest.(check bool) "deleted" true (Store.delete db ~name:"trip");
  Alcotest.(check bool) "second delete is false" false (Store.delete db ~name:"trip");
  Alcotest.(check bool) "data table gone" true
    (Pb_sql.Database.find db "pkg_trip" = None)

let test_invalid_name () =
  let db = demo_db () in
  let query, pkg = solved db in
  match Store.save db ~name:"bad name!" ~query pkg with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "expected failure"

let test_revalidate_ok () =
  let db = demo_db () in
  let query, pkg = solved db in
  Store.save db ~name:"plan" ~query pkg;
  match Store.revalidate db ~name:"plan" with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "package should still be valid"
  | Error e -> Alcotest.fail e

let test_revalidate_detects_data_change () =
  let db = demo_db () in
  let query, pkg = solved db in
  Store.save db ~name:"plan" ~query pkg;
  (* Mutate the base data: one stored tuple vanishes. *)
  let victim =
    match Package.support pkg with
    | i :: _ ->
        Option.get
          (Value.to_int (Relation.get (Package.base pkg) i "id"))
    | [] -> Alcotest.fail "empty package"
  in
  ignore
    (Pb_sql.Executor.execute_sql db
       (Printf.sprintf "DELETE FROM recipes WHERE id = %d" victim));
  (match Store.revalidate db ~name:"plan" with
  | Error _ -> ()  (* stored tuple no longer exists *)
  | Ok _ -> Alcotest.fail "expected a missing-tuple error");
  (* And a softer change: tuple still there but query now unsatisfied. *)
  ()

let test_revalidate_missing () =
  let db = demo_db () in
  match Store.revalidate db ~name:"ghost" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

(* ---- completion ------------------------------------------------------- *)

let contains xs x = List.mem x xs

let test_complete_start () =
  let db = demo_db () in
  Alcotest.(check (list string)) "empty" [ "SELECT" ] (Complete.suggest db "");
  Alcotest.(check (list string)) "partial" [ "SELECT" ] (Complete.suggest db "SEL")

let test_complete_after_select () =
  let db = demo_db () in
  Alcotest.(check (list string)) "package" [ "PACKAGE(" ]
    (Complete.suggest db "SELECT ")

let test_complete_tables_after_from () =
  let db = demo_db () in
  let suggestions = Complete.suggest db "SELECT PACKAGE(R) AS P FROM " in
  Alcotest.(check bool) "recipes" true (contains suggestions "recipes");
  Alcotest.(check bool) "stocks" true (contains suggestions "stocks");
  let filtered = Complete.suggest db "SELECT PACKAGE(R) AS P FROM rec" in
  Alcotest.(check (list string)) "prefix filter" [ "recipes" ] filtered

let test_complete_clause_keywords () =
  let db = demo_db () in
  let s = Complete.suggest db "SELECT PACKAGE(R) AS P FROM recipes R " in
  List.iter
    (fun kw -> Alcotest.(check bool) kw true (contains s kw))
    [ "WHERE"; "SUCH THAT"; "MAXIMIZE"; "MINIMIZE" ]

let test_complete_where_columns () =
  let db = demo_db () in
  let s = Complete.suggest db "SELECT PACKAGE(R) AS P FROM recipes R WHERE " in
  Alcotest.(check bool) "qualified column" true (contains s "r.gluten");
  let filtered =
    Complete.suggest db "SELECT PACKAGE(R) AS P FROM recipes R WHERE r.cal"
  in
  Alcotest.(check (list string)) "column prefix" [ "r.calories" ] filtered

let test_complete_where_operators () =
  let db = demo_db () in
  let s =
    Complete.suggest db "SELECT PACKAGE(R) AS P FROM recipes R WHERE r.gluten "
  in
  Alcotest.(check bool) "=" true (contains s "=");
  Alcotest.(check bool) "BETWEEN" true (contains s "BETWEEN")

let test_complete_such_that () =
  let db = demo_db () in
  let s =
    Complete.suggest db
      "SELECT PACKAGE(R) AS P FROM recipes R WHERE r.gluten = 'free' SUCH THAT "
  in
  Alcotest.(check bool) "COUNT(*)" true (contains s "COUNT(*)");
  Alcotest.(check bool) "SUM(" true (contains s "SUM(");
  Alcotest.(check bool) "package columns" true (contains s "p.calories")

let test_complete_objective () =
  let db = demo_db () in
  let s =
    Complete.suggest db
      "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 3 MAXIMIZE "
  in
  Alcotest.(check bool) "aggregates" true (contains s "SUM(")

let test_complete_bad_input () =
  let db = demo_db () in
  Alcotest.(check (list string)) "unlexable" [] (Complete.suggest db "SELECT #$%")

let suite =
  [
    Alcotest.test_case "store: save and list" `Quick test_save_and_list;
    Alcotest.test_case "store: SQL over saved package" `Quick
      test_saved_package_queryable_by_sql;
    Alcotest.test_case "store: overwrite" `Quick test_save_overwrites;
    Alcotest.test_case "store: load and delete" `Quick test_load_and_delete;
    Alcotest.test_case "store: invalid name" `Quick test_invalid_name;
    Alcotest.test_case "store: revalidate ok" `Quick test_revalidate_ok;
    Alcotest.test_case "store: revalidate after data change" `Quick
      test_revalidate_detects_data_change;
    Alcotest.test_case "store: revalidate missing" `Quick test_revalidate_missing;
    Alcotest.test_case "complete: start" `Quick test_complete_start;
    Alcotest.test_case "complete: after select" `Quick test_complete_after_select;
    Alcotest.test_case "complete: tables after from" `Quick
      test_complete_tables_after_from;
    Alcotest.test_case "complete: clause keywords" `Quick
      test_complete_clause_keywords;
    Alcotest.test_case "complete: where columns" `Quick test_complete_where_columns;
    Alcotest.test_case "complete: where operators" `Quick
      test_complete_where_operators;
    Alcotest.test_case "complete: such that" `Quick test_complete_such_that;
    Alcotest.test_case "complete: objective" `Quick test_complete_objective;
    Alcotest.test_case "complete: bad input" `Quick test_complete_bad_input;
  ]
