(* Tests for the optimization extensions: best-bound node order and the
   §5 cost model. *)

module Model = Pb_lp.Model
module Milp = Pb_lp.Milp
module Parser = Pb_paql.Parser
module Coeffs = Pb_core.Coeffs
module Cost_model = Pb_core.Cost_model

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

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

(* The estimates as the EXPLAIN table shows them: per strategy, whether
   it applies, whether it is exact, and log10 of its cost. *)
type shown = { label : string; applicable : bool; exact : bool; log_cost : float }

let estimates c =
  match String.split_on_char '\n' (String.trim (Cost_model.to_table c)) with
  | _header :: _rule :: rows ->
      List.map
        (fun row ->
          match List.map String.trim (String.split_on_char '|' row) with
          | label :: applicable :: exact :: cost :: _ ->
              {
                label;
                applicable = applicable = "yes";
                exact = exact = "yes";
                log_cost =
                  (if cost = "inf" then infinity
                   else float_of_string (String.sub cost 3 (String.length cost - 3)));
              }
          | _ -> Alcotest.fail ("unparseable cost-model row: " ^ row))
        rows
  | _ -> Alcotest.fail "cost-model table without rows"

let test_cost_model_estimates () =
  let db = items_db 100 in
  let c = Coeffs.make db (Parser.parse meal_query) in
  let es = estimates c in
  Alcotest.(check int) "four strategies" 4 (List.length es);
  let by_label label = List.find (fun e -> e.label = label) es in
  Alcotest.(check bool) "bf is exact" true (by_label "brute-force").exact;
  Alcotest.(check bool) "ls not exact" false (by_label "local-search").exact;
  Alcotest.(check bool) "pruning cheaper than plain bf" true
    ((by_label "brute-force+pruning").log_cost
    <= (by_label "brute-force").log_cost)

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
  let ilp = List.find (fun e -> e.label = "ilp") (estimates c) in
  Alcotest.(check bool) "ilp inapplicable" false ilp.applicable

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

let suite =
  [
    Alcotest.test_case "best-bound = dfs answers" `Quick
      test_best_bound_same_answer;
    Alcotest.test_case "cost model estimates" `Quick test_cost_model_estimates;
    Alcotest.test_case "cost model prefers exact" `Quick
      test_cost_model_pick_prefers_exact;
    Alcotest.test_case "cost model opaque query" `Quick test_cost_model_opaque_query;
    Alcotest.test_case "cost model infeasible" `Quick test_cost_model_infeasible;
    Alcotest.test_case "cost model table" `Quick test_cost_model_table_renders;
  ]
