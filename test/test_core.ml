(* Tests for the evaluation engine: compiled checks, §4.1 pruning bounds,
   brute force, ILP translation, local search, hybrid policy, and cross-
   strategy agreement. *)

module Parser = Pb_paql.Parser
module Ast = Pb_paql.Ast
module Package = Pb_paql.Package
module Semantics = Pb_paql.Semantics
module Coeffs = Pb_core.Coeffs
module Pruning = Pb_core.Pruning
module Brute_force = Pb_core.Brute_force
module Engine = Pb_core.Engine
module Local_search = Pb_core.Local_search
module Value = Pb_relation.Value
module Relation = Pb_relation.Relation
module Schema = Pb_relation.Schema

(* A tiny deterministic table: items with value v = 10(i+1) and weight
   w = i+1 for i in 0..n-1. *)
let items_db n =
  let db = Pb_sql.Database.create () in
  let schema =
    Schema.make
      [
        { Schema.name = "id"; ty = Value.T_int };
        { Schema.name = "v"; ty = Value.T_int };
        { Schema.name = "w"; ty = Value.T_int };
        { Schema.name = "tag"; ty = Value.T_str };
      ]
  in
  let rows =
    List.init n (fun i ->
        [|
          Value.Int (i + 1);
          Value.Int (10 * (i + 1));
          Value.Int (i + 1);
          Value.Str (if (i + 1) mod 2 = 0 then "even" else "odd");
        |])
  in
  Pb_sql.Database.put db "items" (Relation.create schema rows);
  db

let q src = Parser.parse src

let test_coeffs_basic () =
  let db = items_db 5 in
  let c =
    Coeffs.make db
      (q
         "SELECT PACKAGE(i) AS p FROM items i WHERE i.tag = 'odd' SUCH THAT \
          SUM(p.w) <= 7 MAXIMIZE SUM(p.v)")
  in
  Alcotest.(check int) "3 odd candidates" 3 c.Coeffs.n;
  Alcotest.(check bool) "formula linear" true (Result.is_ok c.Coeffs.formula);
  (* objective coefficients follow candidate order: v = 10, 30, 50 *)
  match c.Coeffs.objective with
  | Some (Some (Ast.Maximize, coef)) ->
      Alcotest.(check (array (float 1e-9))) "coef" [| 10.0; 30.0; 50.0 |] coef
  | _ -> Alcotest.fail "expected linear objective"

let test_coeffs_check () =
  let db = items_db 4 in
  let c =
    Coeffs.make db
      (q "SELECT PACKAGE(i) AS p FROM items i SUCH THAT SUM(p.w) BETWEEN 3 AND 5")
  in
  Alcotest.(check bool) "w={1,2}=3 ok" true (Coeffs.check_mult c [| 1; 1; 0; 0 |]);
  Alcotest.(check bool) "w={1}=1 low" false (Coeffs.check_mult c [| 1; 0; 0; 0 |]);
  Alcotest.(check bool) "w={3,4}=7 high" false (Coeffs.check_mult c [| 0; 0; 1; 1 |]);
  Alcotest.(check bool) "multiplicity cap" false (Coeffs.check_mult c [| 2; 1; 0; 0 |])

let test_coeffs_agrees_with_semantics () =
  let db = items_db 6 in
  let query =
    q
      "SELECT PACKAGE(i) AS p FROM items i SUCH THAT COUNT(*) BETWEEN 1 AND \
       3 AND SUM(p.w) <= 9 AND AVG(p.v) >= 20 AND MIN(p.w) >= 1"
  in
  let c = Coeffs.make db query in
  (* exhaustively compare compiled check against the oracle *)
  for mask = 0 to (1 lsl 6) - 1 do
    let mult = Array.init 6 (fun i -> (mask lsr i) land 1) in
    let pkg = Coeffs.package_of_mult c mult in
    Alcotest.(check bool)
      (Printf.sprintf "mask %d" mask)
      (Semantics.is_valid ~db query pkg)
      (Coeffs.check_mult c mult)
  done

let test_pruning_count_bounds () =
  let db = items_db 8 in
  let c =
    Coeffs.make db
      (q "SELECT PACKAGE(i) AS p FROM items i SUCH THAT COUNT(*) BETWEEN 2 AND 4")
  in
  let b = Pruning.cardinality_bounds c in
  Alcotest.(check int) "lo" 2 b.Pruning.lo;
  Alcotest.(check int) "hi" 4 b.Pruning.hi

let test_pruning_sum_bounds () =
  (* §4.1: 2000 <= SUM(cal) <= 2500 with cal in [150, 1200]:
     lo = ceil(2000/1200) = 2, hi = floor(2500/150) = 16. *)
  let db = Pb_sql.Database.create () in
  let schema =
    Schema.make [ { Schema.name = "calories"; ty = Value.T_int } ]
  in
  let rows =
    List.map (fun c -> [| Value.Int c |]) [ 150; 400; 800; 1200; 300; 900 ]
  in
  Pb_sql.Database.put db "meals" (Relation.create schema rows);
  let c =
    Coeffs.make db
      (q
         "SELECT PACKAGE(m) AS p FROM meals m SUCH THAT SUM(p.calories) \
          BETWEEN 2000 AND 2500")
  in
  let b = Pruning.cardinality_bounds c in
  Alcotest.(check int) "lo = ceil(2000/1200)" 2 b.Pruning.lo;
  (* n = 6 so hi clamps to 6 even though 2500/150 = 16 *)
  Alcotest.(check int) "hi clamped to n" 6 b.Pruning.hi

let test_pruning_infeasible () =
  let db = items_db 3 in
  let c =
    Coeffs.make db
      (q "SELECT PACKAGE(i) AS p FROM items i SUCH THAT COUNT(*) = 5")
  in
  let b = Pruning.cardinality_bounds c in
  Alcotest.(check bool) "empty" true (b.Pruning.lo > b.Pruning.hi)

let test_pruning_or_hull () =
  let db = items_db 8 in
  let c =
    Coeffs.make db
      (q
         "SELECT PACKAGE(i) AS p FROM items i SUCH THAT COUNT(*) = 2 OR \
          COUNT(*) = 5")
  in
  let b = Pruning.cardinality_bounds c in
  Alcotest.(check int) "hull lo" 2 b.Pruning.lo;
  Alcotest.(check int) "hull hi" 5 b.Pruning.hi

let test_pruning_soundness_exhaustive () =
  (* No valid package may fall outside the derived bounds. *)
  let db = items_db 7 in
  let queries =
    [
      "SELECT PACKAGE(i) AS p FROM items i SUCH THAT SUM(p.w) BETWEEN 6 AND 10";
      "SELECT PACKAGE(i) AS p FROM items i SUCH THAT SUM(p.v) >= 100 AND COUNT(*) <= 4";
      "SELECT PACKAGE(i) AS p FROM items i SUCH THAT AVG(p.w) <= 3";
      "SELECT PACKAGE(i) AS p FROM items i SUCH THAT MIN(p.w) >= 2 AND SUM(p.w) <= 9";
      "SELECT PACKAGE(i) AS p FROM items i SUCH THAT COUNT(*) = 3 OR SUM(p.w) <= 4";
    ]
  in
  List.iter
    (fun src ->
      let query = q src in
      let c = Coeffs.make db query in
      let b = Pruning.cardinality_bounds c in
      for mask = 0 to (1 lsl 7) - 1 do
        let mult = Array.init 7 (fun i -> (mask lsr i) land 1) in
        if Coeffs.check_mult c mult then begin
          let card = Array.fold_left ( + ) 0 mult in
          if card < b.Pruning.lo || card > b.Pruning.hi then
            Alcotest.fail
              (Printf.sprintf "%s: valid package of size %d outside %s" src
                 card
                 (Pruning.bounds_to_string b))
        end
      done)
    queries

let test_pruning_search_space_numbers () =
  let db = items_db 10 in
  let c =
    Coeffs.make db
      (q "SELECT PACKAGE(i) AS p FROM items i SUCH THAT COUNT(*) = 3")
  in
  let b = Pruning.cardinality_bounds c in
  Alcotest.(check (float 1e-9)) "unpruned 2^10" 10.0 (Pruning.log2_unpruned c);
  (* C(10,3) = 120 *)
  Alcotest.(check (float 1e-6)) "pruned log2 C(10,3)"
    (log 120.0 /. log 2.0)
    (Pruning.log2_pruned c b)

let test_pruning_repeat_space () =
  let db = items_db 4 in
  let c =
    Coeffs.make db
      (q "SELECT PACKAGE(i) AS p FROM items i REPEAT 1 SUCH THAT COUNT(*) = 2")
  in
  let b = Pruning.cardinality_bounds c in
  (* multisets of size 2 over 4 items with max mult 2: C(5,2) = 10 *)
  Alcotest.(check (float 1e-6)) "bounded multisets"
    (log 10.0 /. log 2.0)
    (Pruning.log2_pruned c b)

(* ---- strategies ----------------------------------------------------- *)

let knapsack_query =
  "SELECT PACKAGE(i) AS p FROM items i SUCH THAT COUNT(*) = 3 AND SUM(p.w) \
   <= 12 MAXIMIZE SUM(p.v)"

let test_brute_force_exact () =
  let db = items_db 8 in
  let c = Coeffs.make db (q knapsack_query) in
  let out = Brute_force.search c in
  Alcotest.(check bool) "complete" true out.Brute_force.complete;
  (* best: weights must sum <= 12 with 3 items; take 3+4+5=12 -> v=120 *)
  Alcotest.(check (option (float 1e-9))) "objective" (Some 120.0)
    out.Brute_force.best_objective

let test_brute_force_pruning_reduces_work () =
  let db = items_db 10 in
  let c =
    Coeffs.make db
      (q "SELECT PACKAGE(i) AS p FROM items i SUCH THAT COUNT(*) = 2 MAXIMIZE SUM(p.v)")
  in
  let pruned = Brute_force.search ~use_pruning:true c in
  let unpruned = Brute_force.search ~use_pruning:false c in
  Alcotest.(check (option (float 1e-9))) "same answer"
    unpruned.Brute_force.best_objective pruned.Brute_force.best_objective;
  Alcotest.(check bool) "fewer candidates" true
    (pruned.Brute_force.examined < unpruned.Brute_force.examined)

let test_brute_force_no_objective_stops_early () =
  let db = items_db 10 in
  let c =
    Coeffs.make db
      (q "SELECT PACKAGE(i) AS p FROM items i SUCH THAT COUNT(*) = 2")
  in
  let out = Brute_force.search c in
  Alcotest.(check bool) "found" true (out.Brute_force.best <> None);
  Alcotest.(check bool) "stopped early" true (out.Brute_force.examined < 45)

let test_brute_force_truncation_flag () =
  let db = items_db 18 in
  let c =
    Coeffs.make db
      (q "SELECT PACKAGE(i) AS p FROM items i SUCH THAT SUM(p.w) >= 1 MAXIMIZE SUM(p.v)")
  in
  let out =
    Brute_force.search ~gov:(Pb_util.Gov.create ~bf_candidates:100 ()) c
  in
  Alcotest.(check bool) "incomplete" false out.Brute_force.complete

let test_enumerate_valid () =
  let db = items_db 5 in
  let c =
    Coeffs.make db
      (q "SELECT PACKAGE(i) AS p FROM items i SUCH THAT COUNT(*) = 2")
  in
  let all = Brute_force.enumerate_valid c in
  Alcotest.(check int) "C(5,2)" 10 (List.length all);
  List.iter
    (fun pkg -> Alcotest.(check int) "card 2" 2 (Package.cardinality pkg))
    all

let strategies_to_test db query_src =
  let query = q query_src in
  let exact = Engine.run ~strategy:(Engine.Brute_force { use_pruning = true }) db query in
  let ilp = Engine.run ~strategy:Engine.Ilp db query in
  let hybrid = Engine.run db query in
  (exact, ilp, hybrid)

let check_same_objective name (a : Engine.result) (b : Engine.result) =
  match (a.Engine.objective, b.Engine.objective) with
  | Some x, Some y -> Alcotest.(check (float 1e-6)) name x y
  | None, None -> ()
  | _ ->
      Alcotest.fail
        (Printf.sprintf "%s: one strategy found a package, the other did not" name)

let test_strategies_agree_knapsack () =
  let db = items_db 9 in
  let exact, ilp, hybrid = strategies_to_test db knapsack_query in
  Alcotest.(check bool) "bf proves" true (exact.Engine.proof = Engine.Optimal);
  Alcotest.(check bool) "ilp proves" true (ilp.Engine.proof = Engine.Optimal);
  check_same_objective "bf = ilp" exact ilp;
  check_same_objective "bf = hybrid" exact hybrid

let test_strategies_agree_disjunction () =
  let db = items_db 8 in
  let src =
    "SELECT PACKAGE(i) AS p FROM items i SUCH THAT (COUNT(*) = 2 AND \
     SUM(p.v) >= 100) OR (COUNT(*) = 4 AND SUM(p.w) <= 10) MAXIMIZE SUM(p.v)"
  in
  let exact, ilp, _ = strategies_to_test db src in
  check_same_objective "bf = ilp (or-formula)" exact ilp

let test_strategies_agree_extremum () =
  let db = items_db 8 in
  let src =
    "SELECT PACKAGE(i) AS p FROM items i SUCH THAT COUNT(*) = 3 AND \
     MIN(p.w) >= 2 AND MAX(p.w) <= 7 MAXIMIZE SUM(p.v)"
  in
  let exact, ilp, _ = strategies_to_test db src in
  check_same_objective "bf = ilp (min/max)" exact ilp

let test_strategies_agree_avg () =
  let db = items_db 8 in
  let src =
    "SELECT PACKAGE(i) AS p FROM items i SUCH THAT COUNT(*) BETWEEN 2 AND 4 \
     AND AVG(p.w) <= 4 MAXIMIZE SUM(p.v)"
  in
  let exact, ilp, _ = strategies_to_test db src in
  check_same_objective "bf = ilp (avg)" exact ilp

let test_strategies_agree_repeat () =
  let db = items_db 5 in
  let src =
    "SELECT PACKAGE(i) AS p FROM items i REPEAT 2 SUCH THAT COUNT(*) = 4 AND \
     SUM(p.w) <= 8 MAXIMIZE SUM(p.v)"
  in
  let exact, ilp, _ = strategies_to_test db src in
  check_same_objective "bf = ilp (repeat)" exact ilp

let test_strategies_minimize () =
  let db = items_db 8 in
  let src =
    "SELECT PACKAGE(i) AS p FROM items i SUCH THAT COUNT(*) = 3 AND SUM(p.v) \
     >= 120 MINIMIZE SUM(p.w)"
  in
  let exact, ilp, _ = strategies_to_test db src in
  check_same_objective "bf = ilp (minimize)" exact ilp

let test_infeasible_all_strategies () =
  let db = items_db 4 in
  let src = "SELECT PACKAGE(i) AS p FROM items i SUCH THAT COUNT(*) = 9" in
  let query = q src in
  List.iter
    (fun strategy ->
      let r = Engine.run ~strategy db query in
      Alcotest.(check bool) "no package" true (r.Engine.package = None))
    [
      Engine.Brute_force { use_pruning = true };
      Engine.Ilp;
      Engine.Local_search Local_search.default_params;
      Engine.Hybrid;
    ]

let test_engine_result_is_valid () =
  let db = items_db 10 in
  let query = q knapsack_query in
  List.iter
    (fun strategy ->
      let r = Engine.run ~strategy db query in
      match r.Engine.package with
      | Some pkg ->
          Alcotest.(check bool) "oracle-valid" true
            (Semantics.is_valid ~db query pkg)
      | None -> Alcotest.fail "expected a package")
    [
      Engine.Brute_force { use_pruning = true };
      Engine.Ilp;
      Engine.Local_search Local_search.default_params;
      Engine.Hybrid;
    ]

(* A cancelled request stops local search through its token (here a
   child token, whose parent must stay untouched); the search must
   notice within a round, not after it. *)
let test_local_search_cancel_within_round () =
  let module Gov = Pb_util.Gov in
  let db = items_db 1000 in
  let c =
    Coeffs.make db
      (q
         "SELECT PACKAGE(i) AS p FROM items i SUCH THAT COUNT(*) BETWEEN 20 \
          AND 40 AND SUM(p.w) <= 1000000 MAXIMIZE SUM(p.v)")
  in
  let params =
    {
      Local_search.default_params with
      restarts = 1;
      max_rounds = 1;
      sample_cap = 1_000_000;
      use_sql_neighborhood = false;
    }
  in
  let parent = Gov.create () in
  let child = Gov.child parent in
  Gov.cancel child;
  let out = Local_search.search ~params ~gov:child db c in
  Alcotest.(check int) "no restart" 0 out.stats.restarts_used;
  Alcotest.(check int) "no round" 0 out.stats.rounds;
  Alcotest.(check int) "no pair scored" 0 out.stats.pairs_examined;
  Alcotest.(check bool) "parent untouched" false (Gov.cancelled parent);
  (* Time one repair round plus one improvement round, uncancelled. *)
  let t0 = Unix.gettimeofday () in
  ignore (Local_search.search ~params db c);
  let one_round = Unix.gettimeofday () -. t0 in
  (* Cancel a longer search a quarter of a round into its first round. *)
  let gov = Gov.child (Gov.create ()) in
  let canceller =
    Domain.spawn (fun () ->
        while Gov.spent gov Gov.Ls_restarts < 1 do
          Domain.cpu_relax ()
        done;
        Unix.sleepf (one_round /. 4.0);
        Gov.cancel gov;
        Unix.gettimeofday ())
  in
  let out =
    Local_search.search ~params:{ params with max_rounds = 200 } ~gov db c
  in
  let stopped = Unix.gettimeofday () in
  let cancelled_at = Domain.join canceller in
  Alcotest.(check bool) "stopped in the first round" true (out.stats.rounds <= 1);
  Alcotest.(check bool)
    (Printf.sprintf "stopped %.3fs after the cancel (one round: %.3fs)"
       (stopped -. cancelled_at) one_round)
    true
    (stopped -. cancelled_at < one_round /. 4.0)

let test_local_search_finds_valid () =
  let db = items_db 30 in
  let src =
    "SELECT PACKAGE(i) AS p FROM items i SUCH THAT COUNT(*) = 4 AND SUM(p.w) \
     BETWEEN 40 AND 70 MAXIMIZE SUM(p.v)"
  in
  let query = q src in
  let r =
    Engine.run ~strategy:(Engine.Local_search Local_search.default_params)
      db query
  in
  match r.Engine.package with
  | Some pkg ->
      Alcotest.(check bool) "valid" true (Semantics.is_valid ~db query pkg)
  | None -> Alcotest.fail "local search found nothing"

let test_local_search_nonlinear_fallback () =
  (* A subquery makes SUCH THAT opaque; only search strategies apply. *)
  let db = items_db 8 in
  let src =
    "SELECT PACKAGE(i) AS p FROM items i SUCH THAT COUNT(*) = 2 AND \
     SUM(p.w) IN (SELECT w FROM items WHERE w >= 7)"
  in
  let query = q src in
  let c = Coeffs.make db query in
  Alcotest.(check bool) "opaque" true (Result.is_error c.Coeffs.formula);
  let r = Engine.run db query in
  (match r.Engine.package with
  | Some pkg ->
      Alcotest.(check bool) "valid" true (Semantics.is_valid ~db query pkg)
  | None -> Alcotest.fail "hybrid should still answer via search");
  Alcotest.(check bool) "hybrid did not use ilp" true
    (r.Engine.strategy_used <> "ilp")

let test_sql_replacements_match_paper_example () =
  let db = items_db 6 in
  let src =
    "SELECT PACKAGE(i) AS p FROM items i SUCH THAT COUNT(*) = 2 AND SUM(p.w) \
     <= 7"
  in
  let query = q src in
  let c = Coeffs.make db query in
  let pkg = Package.of_indices (Semantics.candidates db query) ~alias:"p" [ 4; 5 ] in
  (* w = 5 + 6 = 11 > 7: invalid; single replacements fixing it *)
  let moves, sql = Local_search.sql_replacements db c pkg ~k:1 in
  Alcotest.(check bool) "query is a 2-way join" true
    (String.length sql > 0);
  (* valid fixes: replace 5 (idx 4) or 6 (idx 5) with something small
     enough. Replacing idx 5 (w=6) with idx 0 (w=1): 5+1=6 <= 7 ok. *)
  Alcotest.(check bool) "found moves" true (List.length moves > 0);
  List.iter
    (fun (outs, ins) ->
      let next =
        List.fold_left
          (fun acc out -> Package.remove acc out)
          pkg outs
      in
      let next = List.fold_left Package.add next ins in
      Alcotest.(check bool) "every move yields a valid package" true
        (Semantics.is_valid ~db query next))
    moves

let test_sql_replacements_k2 () =
  let db = items_db 6 in
  let src =
    "SELECT PACKAGE(i) AS p FROM items i SUCH THAT COUNT(*) = 3 AND SUM(p.w) \
     <= 7"
  in
  let query = q src in
  let c = Coeffs.make db query in
  (* start = {4,5,6} (indices 3,4,5), w = 15: the best single replacement
     reaches 1+5+6 = 12, still invalid, but two replacements can reach
     4+1+2 = 7 *)
  let pkg = Package.of_indices (Semantics.candidates db query) ~alias:"p" [ 3; 4; 5 ] in
  let moves1, _ = Local_search.sql_replacements db c pkg ~k:1 in
  Alcotest.(check int) "k=1 cannot fix it" 0 (List.length moves1);
  let moves2, _ = Local_search.sql_replacements db c pkg ~k:2 in
  Alcotest.(check bool) "k=2 finds fixes" true (List.length moves2 > 0)

let test_hybrid_choices () =
  (* Small space -> brute force; bigger linear -> ilp. *)
  let db_small = items_db 6 in
  let r_small = Engine.run db_small (q knapsack_query) in
  Alcotest.(check string) "small goes exhaustive" "brute-force+pruning"
    r_small.Engine.strategy_used;
  let db_big = items_db 200 in
  let r_big = Engine.run db_big (q knapsack_query) in
  Alcotest.(check string) "big linear goes ilp" "ilp" r_big.Engine.strategy_used;
  Alcotest.(check bool) "still optimal" true (r_big.Engine.proof = Engine.Optimal)

let test_next_packages_distinct_and_ordered () =
  let db = items_db 8 in
  let query = q knapsack_query in
  let packages = Engine.next_packages ~limit:4 db query in
  Alcotest.(check int) "4 packages" 4 (List.length packages);
  let objs =
    List.map
      (fun p -> Option.get (Semantics.objective_value ~db query p))
      packages
  in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "descending quality" true (decreasing objs);
  let keys = List.map (fun p -> Package.support p) packages in
  Alcotest.(check int) "all distinct" 4 (List.length (List.sort_uniq compare keys))

let test_next_packages_nonlinear_path () =
  let db = items_db 6 in
  let src =
    "SELECT PACKAGE(i) AS p FROM items i SUCH THAT COUNT(*) = 2 AND \
     SUM(p.w) IN (SELECT w FROM items WHERE w >= 5) MAXIMIZE SUM(p.v)"
  in
  let query = q src in
  let packages = Engine.next_packages ~limit:3 db query in
  Alcotest.(check bool) "found some" true (List.length packages > 0);
  List.iter
    (fun p ->
      Alcotest.(check bool) "valid" true (Semantics.is_valid ~db query p))
    packages

let test_precancelled_gov () =
  (* A token cancelled before the run starts: every strategy returns
     promptly, reports [Cancelled], and claims no proof. *)
  let db = items_db 8 in
  let query = q knapsack_query in
  List.iter
    (fun strategy ->
      let gov = Pb_util.Gov.create () in
      Pb_util.Gov.cancel gov;
      let r = Engine.run ~gov ~strategy db query in
      Alcotest.(check bool) "proof is cancelled" true
        (r.Engine.proof = Engine.Cancelled);
      Alcotest.(check bool) "stop reason recorded" true
        (List.mem_assoc "stopped" r.Engine.stats))
    [
      Engine.Brute_force { use_pruning = true };
      Engine.Ilp;
      Engine.Local_search Local_search.default_params;
      Engine.Hybrid;
    ]

let test_empty_candidates () =
  let db = items_db 5 in
  let src =
    "SELECT PACKAGE(i) AS p FROM items i WHERE i.w > 100 SUCH THAT COUNT(*) = 1"
  in
  let query = q src in
  List.iter
    (fun strategy ->
      let r = Engine.run ~strategy db query in
      Alcotest.(check bool) "nothing" true (r.Engine.package = None))
    [
      Engine.Brute_force { use_pruning = true };
      Engine.Ilp;
      Engine.Local_search Local_search.default_params;
      Engine.Hybrid;
    ]

(* Acceptance for the progress telemetry: a governed solve must leave an
   incumbent trajectory — at least two improvements, each strictly better
   than the last, work counters never going backwards, and (for
   branch-and-bound) an optimality gap that never widens. *)
let test_progress_trajectory () =
  let db = items_db 12 in
  let query =
    q
      "SELECT PACKAGE(i) AS p FROM items i SUCH THAT COUNT(*) = 3 AND \
       SUM(p.w) <= 30 MAXIMIZE SUM(p.v)"
  in
  let check_improving ~better evs =
    let rec go = function
      | a :: (b :: _ as rest) ->
          Alcotest.(check bool) "objective strictly improves" true
            (better b.Pb_obs.Progress.objective a.Pb_obs.Progress.objective);
          Alcotest.(check bool) "work counter monotone" true
            (b.Pb_obs.Progress.nodes >= a.Pb_obs.Progress.nodes);
          (match (a.Pb_obs.Progress.gap, b.Pb_obs.Progress.gap) with
          | Some ga, Some gb ->
              Alcotest.(check bool) "gap never widens" true (gb <= ga +. 1e-9)
          | _ -> ());
          go rest
      | _ -> ()
    in
    go evs
  in
  (* brute force on a MINIMIZE query: the enumeration reaches the most
     expensive triple first, so the incumbent must improve repeatedly on
     the way down to the cheapest one *)
  let min_query =
    q "SELECT PACKAGE(i) AS p FROM items i SUCH THAT COUNT(*) = 3 MINIMIZE \
       SUM(p.v)"
  in
  let gov = Pb_util.Gov.create ~bf_candidates:5_000_000 () in
  let r =
    Engine.run ~gov
      ~strategy:(Engine.Brute_force { use_pruning = false })
      db min_query
  in
  let evs = r.Engine.progress in
  Alcotest.(check bool)
    (Printf.sprintf "at least two incumbents (got %d)" (List.length evs))
    true
    (List.length evs >= 2);
  check_improving ~better:(fun b a -> b < a) evs;
  List.iter
    (fun e ->
      Alcotest.(check string) "strategy tag" "brute-force"
        e.Pb_obs.Progress.strategy)
    evs;
  (match (r.Engine.objective, List.rev evs) with
  | Some obj, last :: _ ->
      Alcotest.(check (float 1e-6))
        "last incumbent is the returned objective" obj
        last.Pb_obs.Progress.objective
  | _ -> Alcotest.fail "no objective from a maximize query");
  (* branch-and-bound: incumbents carry a proven bound and a gap *)
  let r2 = Engine.run ~gov:(Pb_util.Gov.create ()) ~strategy:Engine.Ilp db query in
  let evs2 = r2.Engine.progress in
  Alcotest.(check bool) "ilp records incumbents" true (List.length evs2 >= 1);
  List.iter
    (fun e ->
      Alcotest.(check string) "ilp tag" "ilp" e.Pb_obs.Progress.strategy;
      match e.Pb_obs.Progress.bound with
      | Some b ->
          Alcotest.(check bool) "bound dominates the incumbent" true
            (b >= e.Pb_obs.Progress.objective -. 1e-6)
      | None -> ())
    evs2;
  check_improving ~better:(fun b a -> b > a) evs2

let suite =
  [
    Alcotest.test_case "coeffs basic" `Quick test_coeffs_basic;
    Alcotest.test_case "coeffs check" `Quick test_coeffs_check;
    Alcotest.test_case "coeffs = semantics (exhaustive)" `Quick
      test_coeffs_agrees_with_semantics;
    Alcotest.test_case "pruning count bounds" `Quick test_pruning_count_bounds;
    Alcotest.test_case "pruning sum bounds (paper formula)" `Quick
      test_pruning_sum_bounds;
    Alcotest.test_case "pruning infeasible" `Quick test_pruning_infeasible;
    Alcotest.test_case "pruning or hull" `Quick test_pruning_or_hull;
    Alcotest.test_case "pruning soundness (exhaustive)" `Quick
      test_pruning_soundness_exhaustive;
    Alcotest.test_case "pruning search-space size" `Quick
      test_pruning_search_space_numbers;
    Alcotest.test_case "pruning repeat space" `Quick test_pruning_repeat_space;
    Alcotest.test_case "brute force exact" `Quick test_brute_force_exact;
    Alcotest.test_case "pruning reduces bf work" `Quick
      test_brute_force_pruning_reduces_work;
    Alcotest.test_case "bf stops at first (no objective)" `Quick
      test_brute_force_no_objective_stops_early;
    Alcotest.test_case "bf truncation flag" `Quick test_brute_force_truncation_flag;
    Alcotest.test_case "enumerate valid" `Quick test_enumerate_valid;
    Alcotest.test_case "strategies agree: knapsack" `Quick
      test_strategies_agree_knapsack;
    Alcotest.test_case "strategies agree: disjunction" `Quick
      test_strategies_agree_disjunction;
    Alcotest.test_case "strategies agree: min/max" `Quick
      test_strategies_agree_extremum;
    Alcotest.test_case "strategies agree: avg" `Quick test_strategies_agree_avg;
    Alcotest.test_case "strategies agree: repeat" `Quick
      test_strategies_agree_repeat;
    Alcotest.test_case "strategies agree: minimize" `Quick
      test_strategies_minimize;
    Alcotest.test_case "infeasible across strategies" `Quick
      test_infeasible_all_strategies;
    Alcotest.test_case "engine results oracle-valid" `Quick
      test_engine_result_is_valid;
    Alcotest.test_case "local search finds valid" `Quick
      test_local_search_finds_valid;
    Alcotest.test_case "local search cancels within a round" `Quick
      test_local_search_cancel_within_round;
    Alcotest.test_case "non-linear fallback" `Quick
      test_local_search_nonlinear_fallback;
    Alcotest.test_case "sql replacements (paper example)" `Quick
      test_sql_replacements_match_paper_example;
    Alcotest.test_case "sql replacements k=2" `Quick test_sql_replacements_k2;
    Alcotest.test_case "hybrid strategy choices" `Quick test_hybrid_choices;
    Alcotest.test_case "pre-cancelled governance token" `Quick
      test_precancelled_gov;
    Alcotest.test_case "next packages ordered+distinct" `Quick
      test_next_packages_distinct_and_ordered;
    Alcotest.test_case "next packages non-linear path" `Quick
      test_next_packages_nonlinear_path;
    Alcotest.test_case "empty candidate set" `Quick test_empty_candidates;
    Alcotest.test_case "progress trajectory on governed solves" `Quick
      test_progress_trajectory;
  ]
