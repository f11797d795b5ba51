(* Property-based tests for the extension subsystems: SQL set operations,
   the query planner, MILP node orders, SQL candidate generation, annealing,
   persistence, and the interface helpers. *)

module Gen = QCheck.Gen
module Value = Pb_relation.Value
module Relation = Pb_relation.Relation
module Schema = Pb_relation.Schema
module Database = Pb_sql.Database
module Executor = Pb_sql.Executor
module Parser = Pb_paql.Parser
module Model = Pb_lp.Model

(* ---- random small tables ---------------------------------------------- *)

type tables = {
  t1 : (int * int) list;  (* (a, b) *)
  t2 : (int * int) list;  (* (c, d) *)
}

let tables_gen : tables Gen.t =
  let open Gen in
  let* n1 = int_range 0 7 in
  let* n2 = int_range 0 7 in
  let* t1 = list_repeat n1 (pair (int_range 0 4) (int_range 0 9)) in
  let* t2 = list_repeat n2 (pair (int_range 0 4) (int_range 0 9)) in
  return { t1; t2 }

let db_of_tables { t1; t2 } =
  let db = Database.create () in
  let mk cols rows =
    Relation.create
      (Schema.make
         (List.map (fun name -> { Schema.name; ty = Value.T_int }) cols))
      (List.map (fun (x, y) -> [| Value.Int x; Value.Int y |]) rows)
  in
  Database.put db "t1" (mk [ "a"; "b" ] t1);
  Database.put db "t2" (mk [ "c"; "d" ] t2);
  db

let rows_of db sql =
  match Executor.execute_sql db sql with
  | Executor.Rows rel ->
      List.sort compare
        (List.map
           (fun row -> Array.to_list (Array.map Value.to_string row))
           (Relation.to_list rel))
  | _ -> []

(* ---- set-operation algebra -------------------------------------------- *)

let prop_union_commutative =
  QCheck.Test.make ~count:100 ~name:"UNION is commutative (as sets)"
    (QCheck.make tables_gen) (fun t ->
      let db = db_of_tables t in
      rows_of db "SELECT a FROM t1 UNION SELECT c FROM t2"
      = rows_of db "SELECT c FROM t2 UNION SELECT a FROM t1")

let prop_union_idempotent =
  QCheck.Test.make ~count:100 ~name:"X UNION X = DISTINCT X"
    (QCheck.make tables_gen) (fun t ->
      let db = db_of_tables t in
      rows_of db "SELECT a FROM t1 UNION SELECT a FROM t1"
      = rows_of db "SELECT DISTINCT a FROM t1")

let prop_except_subset =
  QCheck.Test.make ~count:100 ~name:"EXCEPT result is a subset of the left side"
    (QCheck.make tables_gen) (fun t ->
      let db = db_of_tables t in
      let left = rows_of db "SELECT DISTINCT a FROM t1" in
      let diff = rows_of db "SELECT a FROM t1 EXCEPT SELECT c FROM t2" in
      List.for_all (fun row -> List.mem row left) diff)

let prop_intersect_in_both =
  QCheck.Test.make ~count:100 ~name:"INTERSECT rows appear in both sides"
    (QCheck.make tables_gen) (fun t ->
      let db = db_of_tables t in
      let left = rows_of db "SELECT DISTINCT a FROM t1" in
      let right = rows_of db "SELECT DISTINCT c FROM t2" in
      let inter = rows_of db "SELECT a FROM t1 INTERSECT SELECT c FROM t2" in
      List.for_all (fun row -> List.mem row left && List.mem row right) inter)

let prop_union_all_cardinality =
  QCheck.Test.make ~count:100 ~name:"UNION ALL cardinality adds up"
    (QCheck.make tables_gen) (fun t ->
      let db = db_of_tables t in
      List.length (rows_of db "SELECT a FROM t1 UNION ALL SELECT c FROM t2")
      = List.length t.t1 + List.length t.t2)

(* ---- planner equivalence (property form) ------------------------------- *)

let where_gen =
  Gen.oneofl
    [
      "t1.a = t2.c";
      "t1.a = t2.c AND t1.b <= 5";
      "t1.b >= 3 AND t2.d < 8";
      "t1.a = t2.c AND t1.b + t2.d < 12";
      "t1.b BETWEEN 2 AND 7";
      "t1.a < t2.c OR t1.b = t2.d";
      "t1.a = t2.c AND t2.d = t1.b";
    ]

let prop_planner_equivalent =
  QCheck.Test.make ~count:150 ~name:"planner = naive product+filter"
    (QCheck.make (Gen.pair tables_gen where_gen)) (fun (t, where) ->
      let db = db_of_tables t in
      ignore (Executor.execute_sql db "CREATE INDEX ON t1 (b)");
      let q = Pb_sql.Parser.parse_select ("SELECT * FROM t1, t2 WHERE " ^ where) in
      let compile = Executor.compile db in
      let planned, _ =
        Pb_sql.Planner.execute db ~compile ~from:q.Pb_sql.Ast.from
          ~where:q.Pb_sql.Ast.where
      in
      let naive =
        Pb_sql.Planner.naive db ~compile ~from:q.Pb_sql.Ast.from
          ~where:q.Pb_sql.Ast.where
      in
      let canon rel =
        List.sort compare
          (List.map
             (fun row -> Array.to_list (Array.map Value.to_string row))
             (Relation.to_list rel))
      in
      canon planned = canon naive)

(* ---- MILP node orders ------------------------------------------------ *)

let milp_gen : (int array * int array * int) Gen.t =
  let open Gen in
  let* n = int_range 1 7 in
  let* w = array_repeat n (int_range 1 9) in
  let* v = array_repeat n (int_range 0 9) in
  let* budget = int_range 1 30 in
  return (w, v, budget)

let build_knapsack (w, v, budget) =
  let m = Model.create () in
  let n = Array.length w in
  let vars =
    Array.init n (fun i ->
        Model.add_var m ~integer:true ~upper:1.0 (Printf.sprintf "x%d" i))
  in
  Model.add_constr m
    (Array.to_list (Array.mapi (fun i x -> (float_of_int w.(i), x)) vars))
    Model.Le (float_of_int budget);
  (* A redundant and a singleton row beside the knapsack row. *)
  Model.add_constr m
    (Array.to_list (Array.map (fun x -> (1.0, x)) vars))
    Model.Le 1000.0;
  Model.add_constr m [ (1.0, vars.(0)) ] Model.Le 1.0;
  Model.set_objective m
    (Model.Maximize
       (Array.to_list (Array.mapi (fun i x -> (float_of_int v.(i), x)) vars)));
  m

let prop_node_orders_agree =
  QCheck.Test.make ~count:100 ~name:"DFS and best-bound agree"
    (QCheck.make milp_gen) (fun inst ->
      let dfs = Pb_lp.Milp.solve ~node_order:Pb_lp.Milp.Dfs (build_knapsack inst) in
      let bb =
        Pb_lp.Milp.solve ~node_order:Pb_lp.Milp.Best_bound (build_knapsack inst)
      in
      dfs.Pb_lp.Milp.status = bb.Pb_lp.Milp.status
      && (dfs.Pb_lp.Milp.status <> Pb_lp.Milp.Optimal
         || Float.abs (dfs.Pb_lp.Milp.objective -. bb.Pb_lp.Milp.objective) < 1e-6))

(* ---- package strategies over random tables ----------------------------- *)

type pkg_instance = { rows : (int * int) list; count : int; budget : int }

let pkg_gen : pkg_instance Gen.t =
  let open Gen in
  let* n = int_range 1 8 in
  let* rows = list_repeat n (pair (int_range 0 20) (int_range 1 9)) in
  let* count = int_range 1 3 in
  let* budget = int_range 3 20 in
  return { rows; count; budget }

let pkg_db inst =
  let db = Database.create () in
  Database.put db "t"
    (Relation.create
       (Schema.make
          [
            { Schema.name = "v"; ty = Value.T_int };
            { Schema.name = "w"; ty = Value.T_int };
          ])
       (List.map (fun (v, w) -> [| Value.Int v; Value.Int w |]) inst.rows));
  db

let pkg_query inst =
  Parser.parse
    (Printf.sprintf
       "SELECT PACKAGE(t) AS p FROM t SUCH THAT COUNT(*) = %d AND SUM(p.w) \
        <= %d MAXIMIZE SUM(p.v)"
       inst.count inst.budget)

let prop_sql_generation_exact =
  QCheck.Test.make ~count:80 ~name:"sql-generation = brute force"
    (QCheck.make pkg_gen) (fun inst ->
      let db = pkg_db inst in
      let c = Pb_core.Coeffs.make db (pkg_query inst) in
      let gen = Pb_core.Sql_generate.search db c in
      let bf = Pb_core.Brute_force.search c in
      gen.Pb_core.Sql_generate.applicable
      &&
      match (gen.Pb_core.Sql_generate.best_objective, bf.Pb_core.Brute_force.best_objective) with
      | Some a, Some b -> Float.abs (a -. b) < 1e-6
      | None, None ->
          gen.Pb_core.Sql_generate.best = None = (bf.Pb_core.Brute_force.best = None)
      | _ -> false)

let prop_annealing_valid =
  QCheck.Test.make ~count:50 ~name:"annealing answers are oracle-valid"
    (QCheck.make pkg_gen) (fun inst ->
      let db = pkg_db inst in
      let query = pkg_query inst in
      let r =
        Pb_core.Engine.run
          ~strategy:(Pb_core.Engine.Anneal Pb_core.Annealing.default_params)
          db query
      in
      match r.Pb_core.Engine.package with
      | Some pkg -> Pb_paql.Semantics.is_valid ~db query pkg
      | None -> true)

(* ---- persistence -------------------------------------------------------- *)

let prop_persist_roundtrip =
  QCheck.Test.make ~count:40 ~name:"persist: save/load is identity"
    (QCheck.make tables_gen) (fun t ->
      let db = db_of_tables t in
      let dir = Filename.temp_file "pb_prop" "" in
      Sys.remove dir;
      let result =
        Fun.protect
          ~finally:(fun () ->
            if Sys.file_exists dir then begin
              Array.iter
                (fun f -> Sys.remove (Filename.concat dir f))
                (Sys.readdir dir);
              Sys.rmdir dir
            end)
          (fun () ->
            Pb_sql.Persist.save_dir db dir;
            let db2 = Pb_sql.Persist.load_dir dir in
            List.for_all
              (fun table ->
                let r1 = Database.find_exn db table in
                let r2 = Database.find_exn db2 table in
                Schema.equal (Relation.schema r1) (Relation.schema r2)
                && Relation.to_list r1 = Relation.to_list r2)
              (Database.table_names db))
      in
      result)

(* Floats reload with the same bits: the saved text is the shortest
   form that round-trips, not the 6-digit display form. *)
let float_gen : float Gen.t =
  let open Gen in
  frequency
    [
      ( 2,
        oneofl
          [ 0.0; -0.0; 5e-324; -5e-324; 2.2250738585072009e-308; 1e300;
            -1e300; Float.max_float; Float.infinity; Float.neg_infinity;
            1.0000001; 123.45678; 3.0; -7.0; 1e15; 4503599627370497.0 ] );
      (1, map float_of_int (int_range (-1_000_000) 1_000_000));
      ( 3,
        map
          (fun bits ->
            let f = Int64.float_of_bits bits in
            if Float.is_nan f then 0.5 else f)
          ui64 );
    ]

let prop_persist_float_bits =
  QCheck.Test.make ~count:100 ~name:"persist: floats reload bitwise"
    (QCheck.make
       ~print:(fun fs -> String.concat ", " (List.map (Printf.sprintf "%h") fs))
       (Gen.list_size (Gen.int_range 1 20) float_gen))
    (fun fs ->
      let db = Database.create () in
      let schema = Schema.make [ { Schema.name = "k"; ty = Value.T_float } ] in
      Database.put db "t"
        (Relation.create schema (List.map (fun f -> [| Value.Float f |]) fs));
      let dir = Filename.temp_file "pb_prop" "" in
      Sys.remove dir;
      Fun.protect
        ~finally:(fun () ->
          if Sys.file_exists dir then begin
            Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
            Sys.rmdir dir
          end)
        (fun () ->
          Pb_sql.Persist.save_dir db dir;
          let back = Database.find_exn (Pb_sql.Persist.load_dir dir) "t" in
          let bits = function
            | [| Value.Float f |] -> Some (Int64.bits_of_float f)
            | _ -> None
          in
          List.map (fun f -> Some (Int64.bits_of_float f)) fs
          = List.map bits (Relation.to_list back)))

(* ---- interface helpers --------------------------------------------------- *)

let paql_text_gen : string Gen.t =
  let open Gen in
  let* where = opt (oneofl [ "t.a > 3"; "t.b BETWEEN 1 AND 9" ]) in
  let* such_that =
    opt
      (oneofl
         [
           "COUNT(*) = 3";
           "SUM(p.a) <= 50 AND AVG(p.b) >= 2";
           "MIN(p.a) >= 1 OR MAX(p.b) <= 7";
         ])
  in
  let* obj = opt (oneofl [ "MAXIMIZE SUM(p.a)"; "MINIMIZE SUM(p.b)" ]) in
  let parts =
    [ "SELECT PACKAGE(t) AS p FROM tbl t" ]
    @ (match where with Some w -> [ "WHERE " ^ w ] | None -> [])
    @ (match such_that with Some s -> [ "SUCH THAT " ^ s ] | None -> [])
    @ match obj with Some o -> [ o ] | None -> []
  in
  return (String.concat " " parts)

let prop_describe_total =
  QCheck.Test.make ~count:200 ~name:"describe_query never raises"
    (QCheck.make paql_text_gen) (fun src ->
      let q = Parser.parse src in
      String.length (Pb_explore.Describe.describe_query q) > 0)

let prop_complete_prefix_of_itself =
  (* Feeding any prefix of a valid query to the completer never raises,
     and every suggestion is non-empty. *)
  QCheck.Test.make ~count:100 ~name:"complete is total on query prefixes"
    (QCheck.make
       Gen.(pair paql_text_gen (int_range 0 80)))
    (fun (src, cut) ->
      let db = Database.create () in
      Database.put db "tbl"
        (Relation.create
           (Schema.make
              [
                { Schema.name = "a"; ty = Value.T_int };
                { Schema.name = "b"; ty = Value.T_int };
              ])
           []);
      let prefix = String.sub src 0 (min cut (String.length src)) in
      List.for_all
        (fun s -> String.length s > 0)
        (Pb_explore.Complete.suggest db prefix))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_union_commutative;
      prop_union_idempotent;
      prop_except_subset;
      prop_intersect_in_both;
      prop_union_all_cardinality;
      prop_planner_equivalent;
      prop_node_orders_agree;
      prop_sql_generation_exact;
      prop_annealing_valid;
      prop_persist_roundtrip;
      prop_persist_float_bits;
      prop_describe_total;
      prop_complete_prefix_of_itself;
    ]
