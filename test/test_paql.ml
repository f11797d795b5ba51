(* Tests for the PaQL front end: parser, pretty-printer, analysis
   (linearization, well-formedness), packages, and reference semantics. *)

module Parser = Pb_paql.Parser
module Ast = Pb_paql.Ast
module Analyze = Pb_paql.Analyze
module Package = Pb_paql.Package
module Semantics = Pb_paql.Semantics
module Sql = Pb_sql.Ast
module Value = Pb_relation.Value
module Relation = Pb_relation.Relation
module Schema = Pb_relation.Schema

let paper_query =
  "SELECT PACKAGE(R) AS P FROM Recipes R WHERE R.gluten = 'free' SUCH THAT \
   COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 MAXIMIZE \
   SUM(P.protein)"

let test_parse_paper_query () =
  let q = Parser.parse paper_query in
  Alcotest.(check string) "relation" "recipes" q.Ast.input_relation;
  Alcotest.(check string) "alias" "r" q.Ast.input_alias;
  Alcotest.(check string) "package alias" "p" q.Ast.package_alias;
  Alcotest.(check bool) "has where" true (q.Ast.where <> None);
  Alcotest.(check bool) "has such that" true (q.Ast.such_that <> None);
  Alcotest.(check bool) "maximize" true
    (match q.Ast.objective with Some (Ast.Maximize, _) -> true | _ -> false);
  Alcotest.(check int) "no repeat -> multiplicity 1" 1 (Ast.max_multiplicity q)

let test_parse_repeat () =
  let q =
    Parser.parse "SELECT PACKAGE(r) FROM recipes r REPEAT 2 SUCH THAT COUNT(*) = 3"
  in
  Alcotest.(check (option int)) "repeat" (Some 2) q.Ast.repeat;
  Alcotest.(check int) "multiplicity 3" 3 (Ast.max_multiplicity q)

let test_parse_minimal () =
  let q = Parser.parse "SELECT PACKAGE(t) FROM things t" in
  Alcotest.(check bool) "no clauses" true
    (q.Ast.where = None && q.Ast.such_that = None && q.Ast.objective = None);
  Alcotest.(check string) "default package alias" "package" q.Ast.package_alias

let test_parse_default_alias () =
  let q = Parser.parse "SELECT PACKAGE(things) FROM things" in
  Alcotest.(check string) "alias = table" "things" q.Ast.input_alias

let test_parse_minimize () =
  let q =
    Parser.parse
      "SELECT PACKAGE(r) FROM recipes r SUCH THAT COUNT(*) = 2 MINIMIZE SUM(r.fat)"
  in
  Alcotest.(check bool) "minimize" true
    (match q.Ast.objective with Some (Ast.Minimize, _) -> true | _ -> false)

let test_roundtrip () =
  let q1 = Parser.parse paper_query in
  let printed = Ast.to_string q1 in
  let q2 = Parser.parse printed in
  Alcotest.(check string) "print-parse-print fixpoint" printed (Ast.to_string q2)

let test_parse_errors () =
  List.iter
    (fun src ->
      match Parser.parse src with
      | exception Parser.Parse_error _ -> ()
      | _ -> Alcotest.fail ("expected error: " ^ src))
    [
      "SELECT * FROM t";
      "SELECT PACKAGE(x) FROM recipes r";  (* package arg mismatch *)
      "SELECT PACKAGE(r) FROM recipes r REPEAT -1";
      "SELECT PACKAGE(r) FROM recipes r SUCH";
      "SELECT PACKAGE(r) FROM recipes r SUCH THAT";
      "SELECT PACKAGE(r) FROM recipes r garbage";
    ]

(* ---- linearization -------------------------------------------------- *)

(* An expression through the SQL parser entry the PaQL parser uses. *)
let parse_expr src =
  Pb_sql.Parser.(parse_expr_state (state_of_tokens (Pb_sql.Lexer.tokenize src)))

let lin src = Analyze.linearize (parse_expr src)

let test_linearize_count () =
  match lin "COUNT(*) = 3" with
  | Ok (Analyze.And [ Analyze.Atom (Analyze.Linear a); Analyze.Atom (Analyze.Linear b) ]) ->
      Alcotest.(check bool) "le" true (a.cmp = Analyze.Le && a.rhs = 3.0);
      Alcotest.(check bool) "ge" true (b.cmp = Analyze.Ge && b.rhs = 3.0)
  | Ok _ -> Alcotest.fail "unexpected linearization"
  | Error e -> Alcotest.fail e

let test_linearize_between () =
  match lin "SUM(p.calories) BETWEEN 2000 AND 2500" with
  | Ok (Analyze.And [ Analyze.Atom (Analyze.Linear a); Analyze.Atom (Analyze.Linear b) ]) ->
      Alcotest.(check bool) "ge 2000" true (a.cmp = Analyze.Ge && a.rhs = 2000.0);
      Alcotest.(check bool) "le 2500" true (b.cmp = Analyze.Le && b.rhs = 2500.0)
  | Ok _ -> Alcotest.fail "unexpected linearization"
  | Error e -> Alcotest.fail e

let test_linearize_not_pushes () =
  match lin "NOT (SUM(p.x) <= 10)" with
  | Ok (Analyze.Atom (Analyze.Linear a)) ->
      Alcotest.(check bool) "flipped to >" true (a.cmp = Analyze.Gt && a.rhs = 10.0)
  | Ok _ -> Alcotest.fail "unexpected linearization"
  | Error e -> Alcotest.fail e

let test_linearize_combination () =
  (* 2*SUM(x) - SUM(y) + 1 <= 7  ->  terms with rhs 6 *)
  match lin "2 * SUM(p.x) - SUM(p.y) + 1 <= 7" with
  | Ok (Analyze.Atom (Analyze.Linear a)) ->
      Alcotest.(check int) "two terms" 2 (List.length a.terms);
      Alcotest.(check (float 1e-9)) "rhs" 6.0 a.rhs
  | Ok _ -> Alcotest.fail "unexpected linearization"
  | Error e -> Alcotest.fail e

let test_linearize_avg () =
  match lin "AVG(p.x) >= 5" with
  | Ok (Analyze.Atom (Analyze.Avg_atom a)) ->
      Alcotest.(check bool) "avg ge 5" true (a.cmp = Analyze.Ge && a.rhs = 5.0)
  | Ok _ -> Alcotest.fail "unexpected linearization"
  | Error e -> Alcotest.fail e

let test_linearize_min_max () =
  (match lin "MIN(p.x) >= 5" with
  | Ok (Analyze.Atom (Analyze.Extremum e)) ->
      Alcotest.(check bool) "min" true (not e.maximum)
  | _ -> Alcotest.fail "expected extremum");
  match lin "MAX(p.x) <= 9" with
  | Ok (Analyze.Atom (Analyze.Extremum e)) ->
      Alcotest.(check bool) "max" true e.maximum
  | _ -> Alcotest.fail "expected extremum"

let test_linearize_negated_coefficient () =
  (* -2 * AVG(p.x) <= -10  <=>  AVG(p.x) >= 5 *)
  match lin "-2 * AVG(p.x) <= -10" with
  | Ok (Analyze.Atom (Analyze.Avg_atom a)) ->
      Alcotest.(check bool) "flipped" true (a.cmp = Analyze.Ge);
      Alcotest.(check (float 1e-9)) "rhs" 5.0 a.rhs
  | Ok _ -> Alcotest.fail "unexpected linearization"
  | Error e -> Alcotest.fail e

let test_linearize_or () =
  match lin "COUNT(*) = 2 OR SUM(p.x) >= 50" with
  | Ok (Analyze.Or [ _; _ ]) -> ()
  | Ok _ -> Alcotest.fail "unexpected linearization"
  | Error e -> Alcotest.fail e

let test_linearize_neq_is_disjunction () =
  match lin "COUNT(*) <> 3" with
  | Ok (Analyze.Or [ _; _ ]) -> ()
  | Ok _ -> Alcotest.fail "unexpected linearization"
  | Error e -> Alcotest.fail e

let test_linearize_rejects () =
  List.iter
    (fun src ->
      match lin src with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("expected opaque: " ^ src))
    [
      "SUM(p.x) * SUM(p.y) <= 10";
      "SUM(p.x) / COUNT(*) <= 10";
      "AVG(p.x) + COUNT(*) <= 10";
      "p.x <= 10";
      "MIN(p.x) + MAX(p.y) <= 3";
    ]

let test_linearize_constant_folding () =
  (match lin "1 + 1 = 2" with
  | Ok Analyze.True -> ()
  | _ -> Alcotest.fail "expected True");
  match lin "1 = 2" with
  | Ok Analyze.False -> ()
  | _ -> Alcotest.fail "expected False"

let test_objective_linearization () =
  (match Analyze.linearize_objective (parse_expr "SUM(p.protein)") with
  | Ok [ (c, Analyze.Sum_term _) ] -> Alcotest.(check (float 1e-9)) "coef" 1.0 c
  | _ -> Alcotest.fail "expected single sum term");
  (match Analyze.linearize_objective (parse_expr "COUNT(*) - 0.5 * SUM(p.fat)") with
  | Ok [ _; _ ] -> ()
  | _ -> Alcotest.fail "expected two terms");
  match Analyze.linearize_objective (parse_expr "MIN(p.x)") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "MIN objective should be rejected"

let test_query_wellformedness () =
  let bad_where =
    Parser.parse "SELECT PACKAGE(r) FROM t r WHERE SUM(r.x) > 3"
  in
  (match Analyze.validate_query bad_where with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "aggregate in WHERE should be rejected");
  let bad_alias =
    Parser.parse "SELECT PACKAGE(r) AS p FROM t r WHERE q.x > 3"
  in
  (match Analyze.validate_query bad_alias with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "foreign alias in WHERE should be rejected");
  let bad_global =
    Parser.parse "SELECT PACKAGE(r) AS p FROM t r SUCH THAT SUM(r.x) > 3"
  in
  (match Analyze.validate_query bad_global with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "input alias in SUCH THAT should be rejected");
  match Analyze.validate_query (Parser.parse paper_query) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ---- packages ------------------------------------------------------- *)

let small_rel () =
  Relation.create
    (Schema.make
       [
         { Schema.name = "id"; ty = Value.T_int };
         { Schema.name = "x"; ty = Value.T_int };
       ])
    [
      [| Value.Int 1; Value.Int 10 |];
      [| Value.Int 2; Value.Int 20 |];
      [| Value.Int 3; Value.Int 30 |];
    ]

let test_package_basics () =
  let rel = small_rel () in
  let p = Package.of_indices rel ~alias:"p" [ 0; 2; 2 ] in
  Alcotest.(check int) "cardinality" 3 (Package.cardinality p);
  Alcotest.(check (list int)) "support" [ 0; 2 ] (Package.support p);
  Alcotest.(check (list int)) "indices" [ 0; 2; 2 ] (Package.indices p);
  Alcotest.(check int) "mult" 2 (Package.multiplicity p 2);
  Alcotest.(check (float 1e-9)) "sum x" 70.0 (Package.sum_column p "x")

let test_package_materialize () =
  let rel = small_rel () in
  let p = Package.of_indices rel ~alias:"pk" [ 1; 1 ] in
  let m = Package.materialize p in
  Alcotest.(check int) "two rows" 2 (Relation.cardinality m);
  Alcotest.(check bool) "alias-qualified" true
    (Schema.index_of (Relation.schema m) "pk.x" <> None)

let test_package_validation_errors () =
  let rel = small_rel () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Package.of_multiplicities: negative") (fun () ->
      ignore (Package.of_multiplicities rel ~alias:"p" [| 1; -1; 0 |]));
  Alcotest.check_raises "length"
    (Invalid_argument "Package.of_multiplicities: length mismatch") (fun () ->
      ignore (Package.of_multiplicities rel ~alias:"p" [| 1 |]))

(* ---- semantics ------------------------------------------------------ *)

let demo_db () =
  let db = Pb_sql.Database.create () in
  Pb_sql.Database.put db "recipes"
    (Relation.create
       (Schema.make
          [
            { Schema.name = "id"; ty = Value.T_int };
            { Schema.name = "gluten"; ty = Value.T_str };
            { Schema.name = "calories"; ty = Value.T_int };
            { Schema.name = "protein"; ty = Value.T_int };
          ])
       [
         [| Value.Int 1; Value.Str "free"; Value.Int 800; Value.Int 30 |];
         [| Value.Int 2; Value.Str "free"; Value.Int 700; Value.Int 25 |];
         [| Value.Int 3; Value.Str "full"; Value.Int 600; Value.Int 40 |];
         [| Value.Int 4; Value.Str "free"; Value.Int 900; Value.Int 10 |];
         [| Value.Int 5; Value.Str "free"; Value.Int 400; Value.Int 35 |];
       ]);
  db

let test_candidates_apply_base_constraints () =
  let db = demo_db () in
  let q = Parser.parse "SELECT PACKAGE(r) AS p FROM recipes r WHERE r.gluten = 'free'" in
  let c = Semantics.candidates db q in
  Alcotest.(check int) "4 gluten-free" 4 (Relation.cardinality c)

let test_validate_package () =
  let db = demo_db () in
  let q =
    Parser.parse
      "SELECT PACKAGE(r) AS p FROM recipes r WHERE r.gluten = 'free' SUCH \
       THAT COUNT(*) = 2 AND SUM(p.calories) <= 1600"
  in
  let cand = Semantics.candidates db q in
  (* candidates (by original id): 1, 2, 4, 5 -> indices 0..3 *)
  let good = Package.of_indices cand ~alias:"p" [ 0; 1 ] in
  Alcotest.(check bool) "800+700 valid" true (Semantics.is_valid ~db q good);
  let too_many = Package.of_indices cand ~alias:"p" [ 0; 1; 3 ] in
  Alcotest.(check bool) "count violated" false (Semantics.is_valid ~db q too_many);
  let too_heavy = Package.of_indices cand ~alias:"p" [ 0; 2 ] in
  Alcotest.(check bool) "800+900 too heavy" false
    (Semantics.is_valid ~db q too_heavy)

let test_empty_package_semantics () =
  let db = demo_db () in
  let q =
    Parser.parse
      "SELECT PACKAGE(r) AS p FROM recipes r SUCH THAT SUM(p.calories) <= 100000"
  in
  let cand = Semantics.candidates db q in
  let empty = Package.of_indices cand ~alias:"p" [] in
  (* SUM over empty is NULL -> constraint unsatisfied, SQL-style. *)
  Alcotest.(check bool) "empty fails SUM constraint" false
    (Semantics.is_valid ~db q empty);
  let q_count = Parser.parse "SELECT PACKAGE(r) AS p FROM recipes r SUCH THAT COUNT(*) = 0" in
  let empty2 = Package.of_indices (Semantics.candidates db q_count) ~alias:"p" [] in
  Alcotest.(check bool) "COUNT(*)=0 accepts empty" true
    (Semantics.is_valid ~db q_count empty2)

let test_multiplicity_enforcement () =
  let db = demo_db () in
  let q = Parser.parse "SELECT PACKAGE(r) AS p FROM recipes r SUCH THAT COUNT(*) = 2" in
  let cand = Semantics.candidates db q in
  let doubled = Package.of_indices cand ~alias:"p" [ 0; 0 ] in
  Alcotest.(check bool) "no repeat" false (Semantics.is_valid ~db q doubled);
  let q2 =
    Parser.parse
      "SELECT PACKAGE(r) AS p FROM recipes r REPEAT 1 SUCH THAT COUNT(*) = 2"
  in
  Alcotest.(check bool) "repeat 1 allows double" true
    (Semantics.is_valid ~db q2 (Package.of_indices (Semantics.candidates db q2) ~alias:"p" [ 0; 0 ]))

let test_objective_value () =
  let db = demo_db () in
  let q = Parser.parse paper_query in
  (* paper query against demo data: 3 free recipes, 2000..2500 cal *)
  let cand = Semantics.candidates db q in
  let pkg = Package.of_indices cand ~alias:"p" [ 0; 1; 2 ] in
  (* 800+700+900 = 2400 cal, protein 30+25+10 = 65 *)
  Alcotest.(check bool) "valid" true (Semantics.is_valid ~db q pkg);
  Alcotest.(check (option (float 1e-9))) "objective" (Some 65.0)
    (Semantics.objective_value ~db q pkg)

let test_compare_quality () =
  let db = demo_db () in
  let q = Parser.parse paper_query in
  let cand = Semantics.candidates db q in
  let a = Package.of_indices cand ~alias:"p" [ 0; 1; 2 ] in (* protein 65 *)
  let b = Package.of_indices cand ~alias:"p" [ 0; 1; 3 ] in (* 800+700+400, protein 90 — but 1900 cal, invalid; quality ignores validity *)
  Alcotest.(check bool) "b preferred on objective" true
    (Semantics.compare_quality q b a > 0)

let suite =
  [
    Alcotest.test_case "parse paper query" `Quick test_parse_paper_query;
    Alcotest.test_case "parse repeat" `Quick test_parse_repeat;
    Alcotest.test_case "parse minimal" `Quick test_parse_minimal;
    Alcotest.test_case "parse default alias" `Quick test_parse_default_alias;
    Alcotest.test_case "parse minimize" `Quick test_parse_minimize;
    Alcotest.test_case "print/parse roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "linearize count" `Quick test_linearize_count;
    Alcotest.test_case "linearize between" `Quick test_linearize_between;
    Alcotest.test_case "linearize NOT pushes" `Quick test_linearize_not_pushes;
    Alcotest.test_case "linearize combination" `Quick test_linearize_combination;
    Alcotest.test_case "linearize avg" `Quick test_linearize_avg;
    Alcotest.test_case "linearize min/max" `Quick test_linearize_min_max;
    Alcotest.test_case "linearize negated coefficient" `Quick
      test_linearize_negated_coefficient;
    Alcotest.test_case "linearize or" `Quick test_linearize_or;
    Alcotest.test_case "linearize <> disjunction" `Quick
      test_linearize_neq_is_disjunction;
    Alcotest.test_case "linearize rejects non-linear" `Quick test_linearize_rejects;
    Alcotest.test_case "linearize constant folding" `Quick
      test_linearize_constant_folding;
    Alcotest.test_case "objective linearization" `Quick test_objective_linearization;
    Alcotest.test_case "query well-formedness" `Quick test_query_wellformedness;
    Alcotest.test_case "package basics" `Quick test_package_basics;
    Alcotest.test_case "package materialize" `Quick test_package_materialize;
    Alcotest.test_case "package validation errors" `Quick
      test_package_validation_errors;
    Alcotest.test_case "candidates apply base constraints" `Quick
      test_candidates_apply_base_constraints;
    Alcotest.test_case "validate package" `Quick test_validate_package;
    Alcotest.test_case "empty package semantics" `Quick test_empty_package_semantics;
    Alcotest.test_case "multiplicity enforcement" `Quick
      test_multiplicity_enforcement;
    Alcotest.test_case "objective value" `Quick test_objective_value;
    Alcotest.test_case "compare quality" `Quick test_compare_quality;
  ]
