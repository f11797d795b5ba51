(* Tests for the optimization extensions: LP-format export, best-bound
   node order, the §5 cost model, and simulated annealing. *)

module Model = Pb_lp.Model
module Milp = Pb_lp.Milp
module Lp_format = Pb_lp.Lp_format
module Parser = Pb_paql.Parser
module Coeffs = Pb_core.Coeffs
module Cost_model = Pb_core.Cost_model
module Annealing = Pb_core.Annealing
module Engine = Pb_core.Engine
module Semantics = Pb_paql.Semantics

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ---- lp format -------------------------------------------------------- *)

let knapsack () =
  let m = Model.create () in
  let vars =
    Array.init 4 (fun i ->
        Model.add_var m ~integer:true ~upper:1.0 (Printf.sprintf "v%d" i))
  in
  Model.add_constr m
    (Array.to_list (Array.mapi (fun i v -> (float_of_int (i + 1), v)) vars))
    Model.Le 6.0;
  Model.set_objective m
    (Model.Maximize (Array.to_list (Array.map (fun v -> (1.0, v)) vars)));
  (m, vars)


let test_lp_format_sections () =
  let m, _ = knapsack () in
  let text = Lp_format.to_string m in
  List.iter
    (fun section ->
      Alcotest.(check bool) section true (contains text section))
    [ "Maximize"; "Subject To"; "Bounds"; "Generals"; "End" ]

let test_lp_format_sanitizes () =
  let m = Model.create () in
  let _ = Model.add_var m "weird name!" in
  let _ = Model.add_var m "weird name?" in
  let text = Lp_format.to_string m in
  Alcotest.(check bool) "sanitized" true (contains text "weird_name_");
  (* the second one must be uniquified *)
  Alcotest.(check bool) "uniquified" true (contains text "weird_name__1")

(* ---- node order -------------------------------------------------------- *)

let test_best_bound_same_answer () =
  let rng = Pb_util.Prng.create 77 in
  for _ = 1 to 15 do
    let n = Pb_util.Prng.int_in rng 3 8 in
    let m = Model.create () in
    let vars =
      Array.init n (fun i ->
          Model.add_var m ~integer:true ~upper:1.0 (Printf.sprintf "v%d" i))
    in
    let w = Array.init n (fun _ -> float_of_int (Pb_util.Prng.int_in rng 1 9)) in
    let v = Array.init n (fun _ -> float_of_int (Pb_util.Prng.int_in rng 0 9)) in
    Model.add_constr m
      (Array.to_list (Array.mapi (fun i x -> (w.(i), x)) vars))
      Model.Le
      (float_of_int (Pb_util.Prng.int_in rng 3 20));
    Model.set_objective m
      (Model.Maximize (Array.to_list (Array.mapi (fun i x -> (v.(i), x)) vars)));
    let dfs = Milp.solve ~node_order:Milp.Dfs m in
    let bb = Milp.solve ~node_order:Milp.Best_bound m in
    Alcotest.(check bool) "same status" true (dfs.Milp.status = bb.Milp.status);
    if dfs.Milp.status = Milp.Optimal then
      Alcotest.(check (float 1e-6)) "same optimum" dfs.Milp.objective
        bb.Milp.objective
  done

(* ---- cost model --------------------------------------------------------- *)

let items_db n =
  let db = Pb_sql.Database.create () in
  Pb_sql.Database.put db "recipes" (Pb_workload.Workload.recipes ~seed:3 ~n ());
  db

let meal_query =
  "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' SUCH THAT \
   COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 MAXIMIZE \
   SUM(P.protein)"

let test_cost_model_estimates () =
  let db = items_db 100 in
  let c = Coeffs.make db (Parser.parse meal_query) in
  let es = Cost_model.estimates c in
  Alcotest.(check int) "four strategies" 4 (List.length es);
  let by_label label = List.find (fun e -> e.Cost_model.strategy_label = label) es in
  Alcotest.(check bool) "bf is exact" true (by_label "brute-force").Cost_model.exact;
  Alcotest.(check bool) "ls not exact" false
    (by_label "local-search").Cost_model.exact;
  Alcotest.(check bool) "pruning cheaper than plain bf" true
    ((by_label "brute-force+pruning").Cost_model.cost
    <= (by_label "brute-force").Cost_model.cost)

let test_cost_model_pick_prefers_exact () =
  let db = items_db 20 in
  let c = Coeffs.make db (Parser.parse meal_query) in
  let choice = Cost_model.pick c in
  Alcotest.(check bool) "exact choice" true choice.Cost_model.exact

let test_cost_model_opaque_query () =
  let db = items_db 30 in
  let c =
    Coeffs.make db
      (Parser.parse
         "SELECT PACKAGE(r) AS p FROM recipes r SUCH THAT SUM(p.calories) IN \
          (SELECT calories FROM recipes) MAXIMIZE SUM(p.protein)")
  in
  let es = Cost_model.estimates c in
  let ilp = List.find (fun e -> e.Cost_model.strategy_label = "ilp") es in
  Alcotest.(check bool) "ilp inapplicable" false ilp.Cost_model.applicable

let test_cost_model_infeasible () =
  let db = items_db 4 in
  let c =
    Coeffs.make db
      (Parser.parse "SELECT PACKAGE(r) AS p FROM recipes r SUCH THAT COUNT(*) = 50")
  in
  Alcotest.(check bool) "proven infeasible" true (Cost_model.proven_infeasible c)

let test_cost_model_table_renders () =
  let db = items_db 25 in
  let c = Coeffs.make db (Parser.parse meal_query) in
  Alcotest.(check bool) "has header" true
    (contains (Cost_model.to_table c) "strategy")

(* ---- annealing ----------------------------------------------------------- *)

let test_annealing_finds_valid () =
  let db = items_db 60 in
  let query = Parser.parse meal_query in
  let r =
    Engine.run ~strategy:(Engine.Anneal Annealing.default_params) db query
  in
  match r.Engine.package with
  | Some pkg ->
      Alcotest.(check bool) "oracle-valid" true (Semantics.is_valid ~db query pkg)
  | None -> Alcotest.fail "annealing found nothing"

let test_annealing_near_optimal () =
  let db = items_db 60 in
  let query = Parser.parse meal_query in
  let exact = Engine.run ~strategy:Engine.Ilp db query in
  let anneal =
    Engine.run ~strategy:(Engine.Anneal Annealing.default_params) db query
  in
  match (exact.Engine.objective, anneal.Engine.objective) with
  | Some e, Some a ->
      Alcotest.(check bool)
        (Printf.sprintf "within 20%% (%g vs %g)" a e)
        true
        (a >= 0.8 *. e)
  | _ -> Alcotest.fail "expected objectives from both"

let test_annealing_empty_candidates () =
  let db = items_db 10 in
  let query =
    Parser.parse
      "SELECT PACKAGE(r) AS p FROM recipes r WHERE r.calories > 100000 SUCH \
       THAT COUNT(*) = 1"
  in
  let r =
    Engine.run ~strategy:(Engine.Anneal Annealing.default_params) db query
  in
  Alcotest.(check bool) "no package" true (r.Engine.package = None)

let test_annealing_deterministic () =
  let db = items_db 40 in
  let query = Parser.parse meal_query in
  let run () =
    (Engine.run ~strategy:(Engine.Anneal Annealing.default_params) db query)
      .Engine.objective
  in
  Alcotest.(check (option (float 1e-9))) "same seed, same answer" (run ()) (run ())

let suite =
  [
    Alcotest.test_case "lp format sections" `Quick test_lp_format_sections;
    Alcotest.test_case "lp format sanitizes names" `Quick test_lp_format_sanitizes;
    Alcotest.test_case "best-bound = dfs answers" `Quick
      test_best_bound_same_answer;
    Alcotest.test_case "cost model estimates" `Quick test_cost_model_estimates;
    Alcotest.test_case "cost model prefers exact" `Quick
      test_cost_model_pick_prefers_exact;
    Alcotest.test_case "cost model opaque query" `Quick test_cost_model_opaque_query;
    Alcotest.test_case "cost model infeasible" `Quick test_cost_model_infeasible;
    Alcotest.test_case "cost model table" `Quick test_cost_model_table_renders;
    Alcotest.test_case "annealing finds valid" `Quick test_annealing_finds_valid;
    Alcotest.test_case "annealing near optimal" `Quick test_annealing_near_optimal;
    Alcotest.test_case "annealing empty candidates" `Quick
      test_annealing_empty_candidates;
    Alcotest.test_case "annealing deterministic" `Quick test_annealing_deterministic;
  ]
