(* Unit tests for pb_relation: values, schemas, relations. *)

module Value = Pb_relation.Value
module Schema = Pb_relation.Schema
module Relation = Pb_relation.Relation

let v_int i = Value.Int i
let v_float f = Value.Float f
let v_str s = Value.Str s

let test_value_compare () =
  Alcotest.(check int) "int eq" 0 (Value.compare_values (v_int 3) (v_int 3));
  Alcotest.(check bool) "int lt" true
    (Value.compare_values (v_int 2) (v_int 3) < 0);
  Alcotest.(check int) "int/float numeric" 0
    (Value.compare_values (v_int 3) (v_float 3.0));
  Alcotest.(check bool) "float/int" true
    (Value.compare_values (v_float 2.5) (v_int 3) < 0);
  Alcotest.(check bool) "null first" true
    (Value.compare_values Value.Null (v_int 0) < 0);
  Alcotest.(check bool) "bool < number" true
    (Value.compare_values (Value.Bool true) (v_int 0) < 0);
  Alcotest.(check bool) "number < string" true
    (Value.compare_values (v_int 5) (v_str "a") < 0);
  Alcotest.(check bool) "string order" true
    (Value.compare_values (v_str "abc") (v_str "abd") < 0)

let test_value_arithmetic () =
  Alcotest.(check bool) "int add" true (Value.equal (v_int 5) (Value.add (v_int 2) (v_int 3)));
  Alcotest.(check bool) "mixed add is float" true
    (Value.equal (v_float 5.5) (Value.add (v_int 2) (v_float 3.5)));
  Alcotest.(check bool) "null propagates" true
    (Value.is_null (Value.add Value.Null (v_int 1)));
  Alcotest.(check bool) "div by zero is null" true
    (Value.is_null (Value.div (v_int 1) (v_int 0)));
  Alcotest.(check bool) "neg" true (Value.equal (v_int (-4)) (Value.neg (v_int 4)));
  Alcotest.check_raises "string add" (Value.Type_error "+: non-numeric operands (a, 1)")
    (fun () -> ignore (Value.add (v_str "a") (v_int 1)))

let test_value_logic () =
  let t = Value.Bool true and f = Value.Bool false and n = Value.Null in
  Alcotest.(check bool) "t and t" true (Value.equal t (Value.logical_and t t));
  Alcotest.(check bool) "f and null = false" true
    (Value.equal f (Value.logical_and f n));
  Alcotest.(check bool) "t and null = null" true
    (Value.is_null (Value.logical_and t n));
  Alcotest.(check bool) "t or null = true" true
    (Value.equal t (Value.logical_or t n));
  Alcotest.(check bool) "f or null = null" true
    (Value.is_null (Value.logical_or f n));
  Alcotest.(check bool) "not null = null" true
    (Value.is_null (Value.logical_not n));
  Alcotest.(check bool) "truthy true" true (Value.truthy t);
  Alcotest.(check bool) "truthy null" false (Value.truthy n);
  Alcotest.(check bool) "truthy int" false (Value.truthy (v_int 1))

let test_value_of_literal () =
  Alcotest.(check bool) "int" true (Value.equal (v_int 42) (Value.of_literal "42"));
  Alcotest.(check bool) "float" true
    (Value.equal (v_float 4.5) (Value.of_literal "4.5"));
  Alcotest.(check bool) "bool" true
    (Value.equal (Value.Bool true) (Value.of_literal "TRUE"));
  Alcotest.(check bool) "string" true
    (Value.equal (v_str "hello") (Value.of_literal "hello"));
  Alcotest.(check bool) "empty is null" true (Value.is_null (Value.of_literal ""))

let test_value_to_string () =
  Alcotest.(check string) "int" "7" (Value.to_string (v_int 7));
  Alcotest.(check string) "integral float" "3" (Value.to_string (v_float 3.0));
  Alcotest.(check string) "frac float" "3.25" (Value.to_string (v_float 3.25));
  Alcotest.(check string) "null" "NULL" (Value.to_string Value.Null)

let mk_schema () =
  Schema.make
    [
      { Schema.name = "id"; ty = Value.T_int };
      { Schema.name = "name"; ty = Value.T_str };
      { Schema.name = "score"; ty = Value.T_float };
    ]

let test_schema_lookup () =
  let s = mk_schema () in
  Alcotest.(check (option int)) "id" (Some 0) (Schema.index_of s "id");
  Alcotest.(check (option int)) "case-insensitive" (Some 1) (Schema.index_of s "NAME");
  Alcotest.(check (option int)) "missing" None (Schema.index_of s "nope");
  Alcotest.(check int) "arity" 3 (Schema.arity s)

let test_schema_qualified_lookup () =
  let s = Schema.qualify "r" (mk_schema ()) in
  Alcotest.(check (option int)) "qualified" (Some 0) (Schema.index_of s "r.id");
  Alcotest.(check (option int)) "suffix match" (Some 0) (Schema.index_of s "id");
  let joined = Schema.concat s (Schema.qualify "t" (mk_schema ())) in
  Alcotest.(check (option int)) "ambiguous suffix" None (Schema.index_of joined "id");
  Alcotest.(check (option int)) "disambiguated" (Some 3) (Schema.index_of joined "t.id")

let test_schema_duplicate () =
  Alcotest.check_raises "dup"
    (Invalid_argument "Schema.make: duplicate column x") (fun () ->
      ignore
        (Schema.make
           [
             { Schema.name = "x"; ty = Value.T_int };
             { Schema.name = "X"; ty = Value.T_str };
           ]))

let mk_rel () =
  Relation.create (mk_schema ())
    [
      [| v_int 1; v_str "a"; v_float 1.5 |];
      [| v_int 2; v_str "b"; v_float 2.5 |];
      [| v_int 3; v_str "c"; v_float 3.5 |];
    ]

let test_relation_basics () =
  let r = mk_rel () in
  Alcotest.(check int) "cardinality" 3 (Relation.cardinality r);
  Alcotest.(check bool) "get" true (Value.equal (v_str "b") (Relation.get r 1 "name"));
  Alcotest.(check int) "filter" 2
    (Relation.cardinality
       (Relation.filter (fun row -> Value.compare_values row.(0) (v_int 1) > 0) r))

let test_relation_arity_mismatch () =
  Alcotest.check_raises "arity"
    (Invalid_argument "Relation: row arity 2 does not match schema arity 3")
    (fun () -> ignore (Relation.create (mk_schema ()) [ [| v_int 1; v_int 2 |] ]))

let test_relation_project () =
  let r = Relation.project (mk_rel ()) [ "score"; "id" ] in
  Alcotest.(check int) "arity" 2 (Schema.arity (Relation.schema r));
  Alcotest.(check bool) "order" true
    (Value.equal (v_float 1.5) (Relation.row r 0).(0))

let test_relation_product () =
  let r = Relation.rename "a" (mk_rel ()) in
  let s = Relation.rename "b" (mk_rel ()) in
  let p = Relation.product r s in
  Alcotest.(check int) "9 rows" 9 (Relation.cardinality p);
  Alcotest.(check int) "6 cols" 6 (Schema.arity (Relation.schema p))

let test_column_stats () =
  let r = mk_rel () in
  match Relation.column_stats r "score" with
  | Some (lo, hi, sum) ->
      Alcotest.(check (float 1e-9)) "min" 1.5 lo;
      Alcotest.(check (float 1e-9)) "max" 3.5 hi;
      Alcotest.(check (float 1e-9)) "sum" 7.5 sum
  | None -> Alcotest.fail "expected stats"

let test_column_stats_text () =
  Alcotest.(check bool) "text has no stats" true
    (Relation.column_stats (mk_rel ()) "name" = None)

let test_append () =
  let r = Relation.append (mk_rel ()) [ [| v_int 4; v_str "d"; v_float 4.5 |] ] in
  Alcotest.(check int) "grown" 4 (Relation.cardinality r)

let test_to_table_elision () =
  let s = Relation.to_table ~max_rows:2 (mk_rel ()) in
  Alcotest.(check bool) "elided note" true
    (String.length s > 0
    &&
    let rec contains i =
      i + 4 <= String.length s
      && (String.sub s i 4 = "more" || contains (i + 1))
    in
    contains 0)

let suite =
  [
    Alcotest.test_case "value compare" `Quick test_value_compare;
    Alcotest.test_case "value arithmetic" `Quick test_value_arithmetic;
    Alcotest.test_case "value 3-valued logic" `Quick test_value_logic;
    Alcotest.test_case "value of_literal" `Quick test_value_of_literal;
    Alcotest.test_case "value to_string" `Quick test_value_to_string;
    Alcotest.test_case "schema lookup" `Quick test_schema_lookup;
    Alcotest.test_case "schema qualified lookup" `Quick test_schema_qualified_lookup;
    Alcotest.test_case "schema duplicate" `Quick test_schema_duplicate;
    Alcotest.test_case "relation basics" `Quick test_relation_basics;
    Alcotest.test_case "relation arity mismatch" `Quick test_relation_arity_mismatch;
    Alcotest.test_case "relation project" `Quick test_relation_project;
    Alcotest.test_case "relation product" `Quick test_relation_product;
    Alcotest.test_case "column stats" `Quick test_column_stats;
    Alcotest.test_case "column stats text" `Quick test_column_stats_text;
    Alcotest.test_case "append" `Quick test_append;
    Alcotest.test_case "to_table elision" `Quick test_to_table_elision;
  ]
