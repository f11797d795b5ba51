(* Tests for the interface abstractions: descriptions, suggestions,
   template, visual summary, adaptive exploration, diversity. *)

module Parser = Pb_paql.Parser
module Ast = Pb_paql.Ast
module Package = Pb_paql.Package
module Semantics = Pb_paql.Semantics
module Describe = Pb_explore.Describe
module Suggest = Pb_explore.Suggest
module Template = Pb_explore.Template
module Summary = Pb_explore.Summary
module Session = Pb_explore.Session
module Diverse = Pb_explore.Diverse

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let demo_db () =
  let db = Pb_sql.Database.create () in
  Pb_workload.Workload.install ~seed:5 ~recipes_n:40 ~destinations:2
    ~stocks_n:30 db;
  db

let paper_query =
  "SELECT PACKAGE(R) AS P FROM Recipes R WHERE R.gluten = 'free' SUCH THAT \
   COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 MAXIMIZE \
   SUM(P.protein)"

let test_describe_query () =
  let q = Parser.parse paper_query in
  let text = Describe.describe_query q in
  Alcotest.(check bool) "mentions exactly 3" true (contains text "exactly 3");
  Alcotest.(check bool) "mentions calories range" true
    (contains text "between 2000 and 2500");
  Alcotest.(check bool) "mentions objective" true (contains text "largest total of protein");
  Alcotest.(check bool) "mentions gluten" true (contains text "gluten");
  Alcotest.(check bool) "no repeat sentence" true (contains text "at most once")

let test_describe_repeat_and_or () =
  let q =
    Parser.parse
      "SELECT PACKAGE(r) AS p FROM recipes r REPEAT 2 SUCH THAT COUNT(*) = 2 \
       OR COUNT(*) = 4"
  in
  let text = Describe.describe_query q in
  Alcotest.(check bool) "repeat" true (contains text "repeated up to 2");
  Alcotest.(check bool) "either/or" true (contains text "either")

let sample_of db q =
  match (Pb_core.Engine.run db q).Pb_core.Engine.package with
  | Some pkg -> pkg
  | None -> Alcotest.fail "no sample package"

let test_suggest_cell_numeric () =
  let db = demo_db () in
  let q = Parser.parse paper_query in
  let sample = sample_of db q in
  let suggestions = Suggest.suggest q ~sample (Suggest.Cell { row = 0; column = "fat" }) in
  Alcotest.(check bool) "several" true (List.length suggestions >= 4);
  (* The paper's example: constraints restricting fat per meal and
     objectives minimizing total fat. *)
  Alcotest.(check bool) "has base constraint" true
    (List.exists (fun s -> s.Suggest.kind = Suggest.Base_constraint) suggestions);
  Alcotest.(check bool) "has minimize objective" true
    (List.exists
       (fun s ->
         s.Suggest.kind = Suggest.Objective
         && contains s.Suggest.paql_fragment "MINIMIZE")
       suggestions);
  (* refined queries parse back *)
  List.iter
    (fun s ->
      let printed = Ast.to_string s.Suggest.refined in
      ignore (Parser.parse printed))
    suggestions

let test_suggest_cell_categorical () =
  let db = demo_db () in
  let q = Parser.parse paper_query in
  let sample = sample_of db q in
  let suggestions =
    Suggest.suggest q ~sample (Suggest.Cell { row = 0; column = "cuisine" })
  in
  Alcotest.(check int) "one equality suggestion" 1 (List.length suggestions);
  Alcotest.(check bool) "is base" true
    ((List.hd suggestions).Suggest.kind = Suggest.Base_constraint)

let test_suggest_column () =
  let db = demo_db () in
  let q = Parser.parse paper_query in
  let sample = sample_of db q in
  let suggestions = Suggest.suggest q ~sample (Suggest.Column "protein") in
  Alcotest.(check bool) "has global band" true
    (List.exists
       (fun s ->
         s.Suggest.kind = Suggest.Global_constraint
         && contains s.Suggest.paql_fragment "BETWEEN")
       suggestions)

let test_suggest_row () =
  let db = demo_db () in
  let q = Parser.parse paper_query in
  let sample = sample_of db q in
  let suggestions = Suggest.suggest q ~sample (Suggest.Row 0) in
  Alcotest.(check bool) "categorical generalizations" true
    (List.length suggestions >= 1);
  List.iter
    (fun s ->
      Alcotest.(check bool) "base kind" true
        (s.Suggest.kind = Suggest.Base_constraint))
    suggestions

let test_suggest_unknown_column () =
  let db = demo_db () in
  let q = Parser.parse paper_query in
  let sample = sample_of db q in
  match Suggest.suggest q ~sample (Suggest.Column "nope") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure"

let test_suggestion_application_refines () =
  let db = demo_db () in
  let q = Parser.parse paper_query in
  let sample = sample_of db q in
  let s =
    List.find
      (fun s -> s.Suggest.kind = Suggest.Base_constraint)
      (Suggest.suggest q ~sample (Suggest.Cell { row = 0; column = "fat" }))
  in
  (* the refined query keeps all original clauses plus the new conjunct *)
  let refined = s.Suggest.refined in
  Alcotest.(check bool) "where grew" true
    (String.length (Ast.to_string refined) > String.length (Ast.to_string q))

let test_template_render () =
  let db = demo_db () in
  let q = Parser.parse paper_query in
  let t = Template.create db q in
  let text = Template.render db t in
  Alcotest.(check bool) "has sample" true (contains text "Sample package");
  Alcotest.(check bool) "has base section" true (contains text "Base constraints");
  Alcotest.(check bool) "has global section" true
    (contains text "Global constraints");
  Alcotest.(check bool) "has objective" true (contains text "MAXIMIZE")

let test_template_refine_keeps_sample_on_failure () =
  let db = demo_db () in
  let q = Parser.parse paper_query in
  let t = Template.create db q in
  let impossible =
    Parser.parse
      "SELECT PACKAGE(r) AS p FROM recipes r SUCH THAT COUNT(*) = 1000"
  in
  let t2 = Template.refine db t impossible in
  Alcotest.(check bool) "sample kept" true (t2.Template.sample = t.Template.sample)

let test_summary_axes () =
  let q = Parser.parse paper_query in
  let x, y = (Summary.build ~max_packages:1 (demo_db ()) q).Summary.axes in
  Alcotest.(check string) "y is objective" "SUM(p.protein)" y.Summary.label;
  Alcotest.(check string) "x is sum constraint" "SUM(p.calories)" x.Summary.label

let test_summary_axes_no_objective () =
  let q =
    Parser.parse "SELECT PACKAGE(r) AS p FROM recipes r SUCH THAT COUNT(*) = 2"
  in
  let x, y = (Summary.build ~max_packages:1 (demo_db ()) q).Summary.axes in
  Alcotest.(check string) "y count" "COUNT(*)" y.Summary.label;
  Alcotest.(check string) "x count" "COUNT(*)" x.Summary.label

let test_summary_build_and_render () =
  let db = demo_db () in
  let q =
    Parser.parse
      "SELECT PACKAGE(r) AS p FROM recipes r WHERE r.gluten = 'free' SUCH \
       THAT COUNT(*) = 2 AND SUM(p.calories) <= 1200 MAXIMIZE SUM(p.protein)"
  in
  let current = sample_of db q in
  let s = Summary.build ~current db q in
  Alcotest.(check bool) "points found" true (List.length s.Summary.points > 0);
  let text = Summary.render s in
  Alcotest.(check bool) "current highlighted" true (contains text "@");
  Alcotest.(check bool) "axes labelled" true (contains text "SUM(p.protein)")

let test_summary_incomplete_marker () =
  let db = demo_db () in
  let q =
    Parser.parse "SELECT PACKAGE(r) AS p FROM recipes r SUCH THAT COUNT(*) = 3"
  in
  let s = Summary.build ~max_packages:5 db q in
  Alcotest.(check bool) "truncated" false s.Summary.complete;
  Alcotest.(check bool) "says running" true (contains (Summary.render s) "running")

let test_session_resample_progress () =
  let db = demo_db () in
  let q = Parser.parse paper_query in
  match Session.start db q with
  | Error e -> Alcotest.fail e
  | Ok session ->
      let first = Session.current session in
      let keep =
        match Package.support first with i :: _ -> [ i ] | [] -> []
      in
      let session2, status = Session.keep_and_resample session ~keep in
      match status with
      | `Fresh ->
          let second = Session.current session2 in
          Alcotest.(check bool) "different package" false
            (Package.multiplicities first = Package.multiplicities second);
          (* kept tuple still present *)
          List.iter
            (fun i ->
              Alcotest.(check bool) "kept" true
                (Package.multiplicity second i >= 1))
            keep;
          Alcotest.(check bool) "still valid" true
            (Semantics.is_valid ~db q second)
      | `Exhausted -> Alcotest.fail "expected a fresh package"

let test_session_exhaustion () =
  (* A query with exactly one valid package exhausts immediately. *)
  let db = Pb_sql.Database.create () in
  Pb_sql.Database.put db "t"
    (Pb_relation.Relation.create
       (Pb_relation.Schema.make
          [ { Pb_relation.Schema.name = "x"; ty = Pb_relation.Value.T_int } ])
       [ [| Pb_relation.Value.Int 1 |]; [| Pb_relation.Value.Int 2 |] ]);
  let q =
    Parser.parse "SELECT PACKAGE(t) AS p FROM t SUCH THAT SUM(p.x) = 3"
  in
  match Session.start db q with
  | Error e -> Alcotest.fail e
  | Ok session -> (
      let _, status = Session.keep_and_resample session ~keep:[] in
      match status with
      | `Exhausted -> ()
      | `Fresh -> Alcotest.fail "only one valid package exists")

let test_session_infer_constraints () =
  let db = demo_db () in
  let q = Parser.parse paper_query in
  match Session.start db q with
  | Error e -> Alcotest.fail e
  | Ok session ->
      let keep = Package.support (Session.current session) in
      let suggestions = Session.infer_constraints session ~keep in
      (* gluten = 'free' is shared by construction *)
      Alcotest.(check bool) "gluten inferred" true
        (List.exists
           (fun s -> contains s.Suggest.paql_fragment "gluten")
           suggestions)

let test_session_simulation_converges () =
  let db = demo_db () in
  let q = Parser.parse paper_query in
  (* target: the optimum package's support *)
  let target =
    Package.support (sample_of db q)
  in
  match Session.simulate db q ~target with
  | Some (rounds, converged) ->
      Alcotest.(check bool) "converged" true converged;
      Alcotest.(check bool) "bounded rounds" true (rounds <= 50)
  | None -> Alcotest.fail "no initial package"

let test_session_no_package () =
  let db = demo_db () in
  let q =
    Parser.parse "SELECT PACKAGE(r) AS p FROM recipes r SUCH THAT COUNT(*) = 999"
  in
  match Session.start db q with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

let test_jaccard () =
  let rel =
    Pb_relation.Relation.create
      (Pb_relation.Schema.make
         [ { Pb_relation.Schema.name = "x"; ty = Pb_relation.Value.T_int } ])
      (List.init 4 (fun i -> [| Pb_relation.Value.Int i |]))
  in
  let p1 = Package.of_indices rel ~alias:"p" [ 0; 1 ] in
  let p2 = Package.of_indices rel ~alias:"p" [ 0; 1 ] in
  let p3 = Package.of_indices rel ~alias:"p" [ 2; 3 ] in
  let p4 = Package.of_indices rel ~alias:"p" [ 1; 2 ] in
  Alcotest.(check (float 1e-9)) "identical" 0.0 (Diverse.jaccard_distance p1 p2);
  Alcotest.(check (float 1e-9)) "disjoint" 1.0 (Diverse.jaccard_distance p1 p3);
  Alcotest.(check (float 1e-9)) "overlap 1/3" (1.0 -. (1.0 /. 3.0))
    (Diverse.jaccard_distance p1 p4)

let test_diverse_selection () =
  let db = demo_db () in
  let q =
    Parser.parse
      "SELECT PACKAGE(r) AS p FROM recipes r WHERE r.gluten = 'free' SUCH \
       THAT COUNT(*) = 2 MAXIMIZE SUM(p.protein)"
  in
  let picks = Diverse.diverse_packages ~pool_size:300 ~k:4 db q in
  Alcotest.(check int) "4 picks" 4 (List.length picks);
  (* first pick is the best package of the pool *)
  let best = List.hd picks in
  List.iter
    (fun other ->
      Alcotest.(check bool) "seed is best" true
        (Semantics.compare_quality q best other >= 0))
    (List.tl picks);
  (* pairwise distinct *)
  let supports = List.map Package.support picks in
  Alcotest.(check int) "distinct" 4 (List.length (List.sort_uniq compare supports))

let suite =
  [
    Alcotest.test_case "describe query" `Quick test_describe_query;
    Alcotest.test_case "describe repeat + or" `Quick test_describe_repeat_and_or;
    Alcotest.test_case "suggest: numeric cell" `Quick test_suggest_cell_numeric;
    Alcotest.test_case "suggest: categorical cell" `Quick
      test_suggest_cell_categorical;
    Alcotest.test_case "suggest: column" `Quick test_suggest_column;
    Alcotest.test_case "suggest: row" `Quick test_suggest_row;
    Alcotest.test_case "suggest: unknown column" `Quick test_suggest_unknown_column;
    Alcotest.test_case "suggestion application" `Quick
      test_suggestion_application_refines;
    Alcotest.test_case "template render" `Quick test_template_render;
    Alcotest.test_case "template refine failure keeps sample" `Quick
      test_template_refine_keeps_sample_on_failure;
    Alcotest.test_case "summary axes" `Quick test_summary_axes;
    Alcotest.test_case "summary axes (no objective)" `Quick
      test_summary_axes_no_objective;
    Alcotest.test_case "summary build + render" `Quick test_summary_build_and_render;
    Alcotest.test_case "summary incomplete marker" `Quick
      test_summary_incomplete_marker;
    Alcotest.test_case "session resample progress" `Quick
      test_session_resample_progress;
    Alcotest.test_case "session exhaustion" `Quick test_session_exhaustion;
    Alcotest.test_case "session infers constraints" `Quick
      test_session_infer_constraints;
    Alcotest.test_case "session simulation converges" `Quick
      test_session_simulation_converges;
    Alcotest.test_case "session no package" `Quick test_session_no_package;
    Alcotest.test_case "jaccard distance" `Quick test_jaccard;
    Alcotest.test_case "diverse selection" `Quick test_diverse_selection;
  ]
