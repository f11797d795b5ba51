(* Tests for the synthetic workload generators: determinism, schema,
   ranges, and the structural properties the scenario queries rely on. *)

module Workload = Pb_workload.Workload
module Relation = Pb_relation.Relation
module Schema = Pb_relation.Schema
module Value = Pb_relation.Value

let float_of v = Option.get (Value.to_float v)

(* One table as [Workload.install] generates it; [install] seeds
   travel_items, stocks and courses with seed + 1, + 2 and + 3. *)
let installed name ~seed ?(destinations = 8) ?(stocks_n = 200)
    ?(electives = 40) () =
  let db = Pb_sql.Database.create () in
  Workload.install ~seed ~recipes_n:1 ~destinations ~stocks_n ~electives db;
  Pb_sql.Database.find_exn db name

let test_recipes_deterministic () =
  let a = Workload.recipes ~seed:9 ~n:50 () in
  let b = Workload.recipes ~seed:9 ~n:50 () in
  Alcotest.(check int) "same size" (Relation.cardinality a) (Relation.cardinality b);
  for i = 0 to Relation.cardinality a - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "row %d equal" i)
      true
      (Array.for_all2 Value.equal (Relation.row a i) (Relation.row b i))
  done;
  let c = Workload.recipes ~seed:10 ~n:50 () in
  let identical = ref true in
  for i = 0 to 49 do
    if not (Array.for_all2 Value.equal (Relation.row a i) (Relation.row c i))
    then identical := false
  done;
  Alcotest.(check bool) "different seed differs" false !identical

let test_recipes_ranges () =
  let r = Workload.recipes ~seed:1 ~n:200 () in
  Alcotest.(check int) "size" 200 (Relation.cardinality r);
  for i = 0 to 199 do
    let cal = float_of (Relation.get r i "calories") in
    let protein = float_of (Relation.get r i "protein") in
    let fat = float_of (Relation.get r i "fat") in
    let carbs = float_of (Relation.get r i "carbs") in
    let sugar = float_of (Relation.get r i "sugar") in
    let rating = float_of (Relation.get r i "rating") in
    Alcotest.(check bool) "calories floor" true (cal >= 150.0);
    Alcotest.(check bool) "protein range" true (protein >= 4.0 && protein <= 60.0);
    Alcotest.(check bool) "sugar <= carbs" true (sugar <= carbs);
    Alcotest.(check bool) "rating 1..5" true (rating >= 1.0 && rating <= 5.0);
    (* calories roughly tracks the macronutrients *)
    let expected = (4.0 *. protein) +. (4.0 *. carbs) +. (9.0 *. fat) in
    Alcotest.(check bool) "kcal correlation" true
      (Float.abs (cal -. expected) <= 130.0 || cal = 150.0)
  done

let test_recipes_gluten_mix () =
  let r = Workload.recipes ~seed:2 ~n:300 () in
  let free = ref 0 in
  for i = 0 to 299 do
    match Relation.get r i "gluten" with
    | Value.Str "free" -> incr free
    | Value.Str "full" -> ()
    | v -> Alcotest.fail ("unexpected gluten value " ^ Value.to_string v)
  done;
  Alcotest.(check bool) "both classes present" true (!free > 30 && !free < 270)

let test_travel_structure () =
  let r = installed "travel_items" ~seed:2 ~destinations:4 () in
  let kinds = Hashtbl.create 4 in
  let destinations = Hashtbl.create 8 in
  for i = 0 to Relation.cardinality r - 1 do
    let kind = Value.to_string (Relation.get r i "kind") in
    Hashtbl.replace kinds kind
      (1 + Option.value (Hashtbl.find_opt kinds kind) ~default:0);
    Hashtbl.replace destinations
      (Value.to_string (Relation.get r i "destination"))
      ();
    (* indicator columns are consistent with kind *)
    let flag name = float_of (Relation.get r i name) in
    let expected_flag k = if kind = k then 1.0 else 0.0 in
    Alcotest.(check (float 0.0)) "is_flight" (expected_flag "flight") (flag "is_flight");
    Alcotest.(check (float 0.0)) "is_hotel" (expected_flag "hotel") (flag "is_hotel");
    Alcotest.(check (float 0.0)) "is_car" (expected_flag "car") (flag "is_car");
    Alcotest.(check bool) "price positive" true (float_of (Relation.get r i "price") > 0.0);
    (* beach distance only for hotels *)
    if kind <> "hotel" then
      Alcotest.(check (float 0.0)) "no beach distance" 0.0
        (float_of (Relation.get r i "beach_distance"))
  done;
  Alcotest.(check int) "4 destinations" 4 (Hashtbl.length destinations);
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " present") true (Hashtbl.mem kinds k))
    [ "flight"; "hotel"; "car" ]

let test_travel_beach_price_anticorrelation () =
  let r = installed "travel_items" ~seed:3 ~destinations:6 () in
  (* average price of hotels within 2km vs beyond 6km *)
  let near = ref [] and far = ref [] in
  for i = 0 to Relation.cardinality r - 1 do
    if Value.to_string (Relation.get r i "kind") = "hotel" then begin
      let beach = float_of (Relation.get r i "beach_distance") in
      let price = float_of (Relation.get r i "price") in
      if beach <= 2.0 then near := price :: !near
      else if beach >= 6.0 then far := price :: !far
    end
  done;
  if !near <> [] && !far <> [] then
    Alcotest.(check bool) "near beach costs more" true
      (Pb_util.Stats.mean !near > Pb_util.Stats.mean !far)

let test_stocks_structure () =
  let r = installed "stocks" ~seed:3 ~stocks_n:150 () in
  Alcotest.(check int) "size" 150 (Relation.cardinality r);
  let tech = ref 0 in
  for i = 0 to 149 do
    let sector = Value.to_string (Relation.get r i "sector") in
    let is_tech = float_of (Relation.get r i "is_tech") in
    if sector = "tech" then begin
      incr tech;
      Alcotest.(check (float 0.0)) "tech flag" 1.0 is_tech
    end
    else Alcotest.(check (float 0.0)) "non-tech flag" 0.0 is_tech;
    let horizon = Value.to_string (Relation.get r i "horizon") in
    let s = float_of (Relation.get r i "is_short") in
    let l = float_of (Relation.get r i "is_long") in
    Alcotest.(check (float 0.0)) "short+long = 1" 1.0 (s +. l);
    Alcotest.(check bool) "horizon consistent" true
      ((horizon = "short" && s = 1.0) || (horizon = "long" && l = 1.0));
    Alcotest.(check bool) "risk in (0,1]" true
      (float_of (Relation.get r i "risk") > 0.0
      && float_of (Relation.get r i "risk") <= 1.0)
  done;
  Alcotest.(check bool) "tech present" true (!tech > 5)

let test_courses_structure () =
  let r = installed "courses" ~seed:2 ~electives:20 () in
  Alcotest.(check int) "chain + electives" 24 (Relation.cardinality r);
  (* chain indicator columns are one-hot on the chain, zero elsewhere *)
  let chain = [ "cs101"; "cs201"; "cs301"; "cs401" ] in
  for i = 0 to Relation.cardinality r - 1 do
    let code = Value.to_string (Relation.get r i "code") in
    List.iter
      (fun c ->
        let flag = float_of (Relation.get r i ("is_" ^ c)) in
        if code = c then Alcotest.(check (float 0.0)) (c ^ " flagged") 1.0 flag
        else Alcotest.(check (float 0.0)) (c ^ " unflagged") 0.0 flag)
      chain;
    let credits = float_of (Relation.get r i "credits") in
    Alcotest.(check bool) "credits 2..5" true (credits >= 2.0 && credits <= 5.0)
  done

let test_courses_prerequisites_enforced () =
  (* The §6 claim: a prerequisite is one linear global constraint, and the
     exact path honours it. *)
  let db = Pb_sql.Database.create () in
  Pb_sql.Database.put db "courses" (installed "courses" ~seed:3 ~electives:15 ());
  let query =
    Pb_paql.Parser.parse
      "SELECT PACKAGE(C) AS S FROM courses C SUCH THAT COUNT(*) = 4 AND \
       SUM(S.is_cs201) <= SUM(S.is_cs101) AND SUM(S.is_cs301) <= \
       SUM(S.is_cs201) AND SUM(S.is_cs301) = 1 MAXIMIZE SUM(S.rating)"
  in
  let r = Pb_core.Engine.run ~strategy:Pb_core.Engine.Ilp db query in
  match r.Pb_core.Engine.package with
  | None -> Alcotest.fail "expected a schedule"
  | Some pkg ->
      Alcotest.(check bool) "optimal" true
        (r.Pb_core.Engine.proof = Pb_core.Engine.Optimal);
      List.iter
        (fun code ->
          Alcotest.(check bool) (code ^ " present") true
            (Pb_paql.Package.sum_column pkg ("is_" ^ code) > 0.5))
        [ "cs101"; "cs201"; "cs301" ]

let test_install () =
  let db = Pb_sql.Database.create () in
  Workload.install ~recipes_n:30 ~destinations:2 ~stocks_n:20 ~electives:10 db;
  Alcotest.(check (list string)) "tables"
    [ "courses"; "recipes"; "stocks"; "travel_items" ]
    (Pb_sql.Database.table_names db);
  (* tables are queryable through SQL *)
  match
    Pb_sql.Executor.execute_sql db
      "SELECT COUNT(*) AS n FROM recipes WHERE gluten = 'free'"
  with
  | Pb_sql.Executor.Rows rel ->
      Alcotest.(check bool) "some free recipes" true
        (float_of (Relation.row rel 0).(0) > 0.0)
  | _ -> Alcotest.fail "expected rows"

let suite =
  [
    Alcotest.test_case "recipes deterministic" `Quick test_recipes_deterministic;
    Alcotest.test_case "recipes ranges" `Quick test_recipes_ranges;
    Alcotest.test_case "recipes gluten mix" `Quick test_recipes_gluten_mix;
    Alcotest.test_case "travel structure" `Quick test_travel_structure;
    Alcotest.test_case "travel beach/price anti-correlation" `Quick
      test_travel_beach_price_anticorrelation;
    Alcotest.test_case "stocks structure" `Quick test_stocks_structure;
    Alcotest.test_case "courses structure" `Quick test_courses_structure;
    Alcotest.test_case "courses prerequisites" `Quick
      test_courses_prerequisites_enforced;
    Alcotest.test_case "install" `Quick test_install;
  ]
