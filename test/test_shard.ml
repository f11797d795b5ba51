(* Tests for the shared-nothing shard layer: hash stability (golden
   values — the partitioning contract must never drift), partition
   completeness, partial-aggregate merge planning checked differentially
   against single-node execution, and an in-process router-vs-single-node
   differential over real sockets. *)

module Value = Pb_relation.Value
module Relation = Pb_relation.Relation
module Database = Pb_sql.Database
module Parser = Pb_sql.Parser
module Executor = Pb_sql.Executor
module Ast = Pb_sql.Ast
module Hash = Pb_shard.Hash
module Merge = Pb_shard.Merge
module Router = Pb_shard.Router
module Server = Pb_net.Server
module Gov = Pb_util.Gov

let exec db sql =
  List.iter (fun st -> ignore (Executor.execute db st)) (Parser.parse_script sql)

let parse_select sql =
  match Parser.parse_script sql with
  | [ Ast.Select_stmt q ] -> q
  | _ -> Alcotest.failf "expected a single SELECT: %s" sql

(* ---- hash stability --------------------------------------------------- *)

(* Golden values: if any of these change, existing sharded deployments
   would route rows to the wrong shard. Never "fix" this test by
   updating the constants — fix the hash. *)
let test_hash_golden () =
  let check name row expected =
    Alcotest.(check int64) name expected (Hash.hash_row row)
  in
  check "empty row" [||] 0xcbf29ce484222325L;
  check "null" [| Value.Null |] 0xaf64034c86022ed1L;
  check "int 42" [| Value.Int 42 |] 0x40e3c919c8e5fac6L;
  check "float 1.5" [| Value.Float 1.5 |] 0x1f1b908c0f151958L;
  check "string" [| Value.Str "rice" |] 0x7cb0d99d9510ee95L;
  check "mixed"
    [| Value.Int 7; Value.Str "a"; Value.Bool true; Value.Null |]
    0xd066e2571050396dL

let test_hash_discriminates () =
  (* concatenation attacks and type confusion must not collide *)
  let h row = Hash.hash_row row in
  Alcotest.(check bool) "ab|c vs a|bc" false
    (h [| Value.Str "ab"; Value.Str "c" |] = h [| Value.Str "a"; Value.Str "bc" |]);
  Alcotest.(check bool) "int 1 vs str 1" false
    (h [| Value.Int 1 |] = h [| Value.Str "1" |]);
  Alcotest.(check bool) "bool vs int" false
    (h [| Value.Bool true |] = h [| Value.Int 1 |]);
  Alcotest.(check bool) "null vs empty string" false
    (h [| Value.Null |] = h [| Value.Str "" |])

let test_partition_complete () =
  let rel = Pb_workload.Workload.recipes ~seed:3 ~n:97 () in
  let shards = 4 in
  let parts =
    List.init shards (fun shard -> Hash.filter_shard ~shards ~shard rel)
  in
  let total = List.fold_left (fun a p -> a + Relation.cardinality p) 0 parts in
  Alcotest.(check int) "cardinalities sum" (Relation.cardinality rel) total;
  List.iter
    (fun p ->
      Alcotest.(check bool) "every shard owns something (n=97, shards=4)" true
        (Relation.cardinality p > 0))
    parts;
  let sort rows = List.sort compare rows in
  Alcotest.(check bool) "union is the original multiset" true
    (sort (List.concat_map Relation.to_list parts) = sort (Relation.to_list rel))

let test_hash_survives_data_codec () =
  (* the PaQL path recomputes shard residency on rows pulled through the
     data-mode codec: the round trip must not change a single hash *)
  let rel = Pb_workload.Workload.recipes ~seed:5 ~n:23 () in
  match Pb_net.Wire_data.decode_result (Pb_net.Wire_data.encode_result (Executor.Rows rel)) with
  | Ok (Executor.Rows rel') ->
      Array.iteri
        (fun i row ->
          Alcotest.(check int64)
            (Printf.sprintf "row %d hash" i)
            (Hash.hash_row row)
            (Hash.hash_row (Relation.row rel' i)))
        (Relation.rows rel)
  | _ -> Alcotest.fail "codec round trip failed"

(* ---- merge planning, differentially ----------------------------------- *)

(* Float literals are exact binary fractions on purpose: the merged SUM
   re-associates addition, which is only byte-identical when every
   partial sum is exact. *)
let seed_sql =
  "CREATE TABLE t (g TEXT, v INT, f FLOAT);\n\
   INSERT INTO t VALUES\n\
   ('a', 1, 1.5), ('a', 2, 2.5), ('b', 10, 0.25), ('b', NULL, NULL),\n\
   ('c', 7, 1.0), (NULL, 3, 0.5), ('a', 1, 1.5), ('d', NULL, NULL),\n\
   ('d', NULL, NULL), ('b', 4, 8.0), ('c', -2, -1.0), ('e', 100, 3.25),\n\
   ('a', 5, 0.125), (NULL, NULL, NULL)"

let shards = 3

let make_single () =
  let db = Database.create () in
  exec db seed_sql;
  db

let make_shards () =
  let single = make_single () in
  let full = Database.find_exn single "t" in
  List.init shards (fun shard ->
      let db = Database.create () in
      Database.put db "t" (Hash.filter_shard ~shards ~shard full);
      db)

let run_to_table db q =
  match Executor.execute db (Ast.Select_stmt q) with
  | Executor.Rows rel -> Relation.to_table rel
  | _ -> Alcotest.fail "expected rows"

let check_merged sql =
  let q = parse_select sql in
  match Merge.plan ~table:"t" q with
  | None -> Alcotest.failf "expected a merge plan for: %s" sql
  | Some plan ->
      let single = make_single () in
      let expected = run_to_table single q in
      let partials =
        List.map
          (fun db ->
            match Executor.execute db (Ast.Select_stmt plan.Merge.partial) with
            | Executor.Rows rel -> rel
            | _ -> Alcotest.fail "partial must return rows")
          (make_shards ())
      in
      let scratch = Database.create () in
      (match partials with
      | first :: _ ->
          Database.put scratch plan.Merge.scratch
            (Relation.create (Relation.schema first)
               (List.concat_map Relation.to_list partials))
      | [] -> assert false);
      let merged = run_to_table scratch plan.Merge.final in
      Alcotest.(check string) sql expected merged

let test_merge_differential () =
  List.iter check_merged
    [
      "SELECT COUNT(*) FROM t";
      "SELECT COUNT(v), SUM(v), MIN(v), MAX(v) FROM t";
      "SELECT g, COUNT(*) AS n, SUM(v) AS sv FROM t GROUP BY g ORDER BY g";
      "SELECT g, SUM(f) FROM t WHERE v IS NOT NULL GROUP BY g ORDER BY g";
      "SELECT g, COUNT(*) FROM t GROUP BY g HAVING COUNT(*) >= 2 ORDER BY g";
      "SELECT g, MAX(v) FROM t GROUP BY g ORDER BY MAX(v) DESC, g LIMIT 3";
      "SELECT SUM(v) + COUNT(*) FROM t";
      "SELECT COUNT(*) FROM t WHERE g = 'a' OR v > 5";
      "SELECT MIN(f), MAX(f) FROM t WHERE g IS NOT NULL";
    ]

let test_merge_refusals () =
  List.iter
    (fun sql ->
      let q = parse_select sql in
      match Merge.plan ~table:"t" q with
      | None -> ()
      | Some _ -> Alcotest.failf "must refuse to merge: %s" sql)
    [
      (* AVG of partial AVGs is wrong; reconstructing it re-associates *)
      "SELECT AVG(v) FROM t";
      (* DISTINCT across shards needs a global set *)
      "SELECT DISTINCT g FROM t";
      (* bare column in a grouped query = group representative: depends
         on physical row order, unreproducible from partials *)
      "SELECT g, v FROM t GROUP BY g";
      (* no aggregation at all: nothing to merge *)
      "SELECT v FROM t";
      (* joins need rows, not partials *)
      "SELECT COUNT(*) FROM t a, t b";
      (* subqueries may reference other shards *)
      "SELECT COUNT(*) FROM t WHERE v IN (SELECT v FROM t)";
      "SELECT * FROM t";
    ]

(* ---- router vs single node over real sockets -------------------------- *)

let paql_line =
  "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' SUCH THAT \
   COUNT(*) = 2 AND SUM(P.calories) <= 2600 MAXIMIZE SUM(P.protein)"

let server_config = { Server.default_config with port = 0 }

(* Replay the same inputs through a Repl on the full database and
   through a Router fronting two in-process shard servers; every
   reaction must match byte-for-byte. Covers merged aggregates, the
   scan-pull fallback (join with ORDER BY), routed INSERT, broadcast
   UPDATE/DELETE (with exact float and quoted string literals),
   router-local tables, and \ commands. *)
let test_router_matches_single_node () =
  let full = Database.create () in
  Database.put full "recipes" (Pb_workload.Workload.recipes ~seed:11 ~n:60 ());
  let shard_db i =
    let db = Database.create () in
    Database.put db "recipes"
      (Hash.filter_shard ~shards:2 ~shard:i
         (Database.find_exn full "recipes"));
    db
  in
  Server.with_server ~config:server_config (shard_db 0) (fun s0 ->
      Server.with_server ~config:server_config (shard_db 1) (fun s1 ->
          let router =
            Router.create ~connect_timeout:5.0
              ~shards:
                [| ("127.0.0.1", Server.port s0); ("127.0.0.1", Server.port s1) |]
              (Database.create ())
          in
          Fun.protect
            ~finally:(fun () -> Router.close router)
            (fun () ->
              let repl = Pb_shell.Repl.create full in
              let inputs =
                [
                  "\\tables";
                  "SELECT COUNT(*), SUM(calories), MIN(rating), MAX(cost) \
                   FROM recipes";
                  "SELECT cuisine, COUNT(*) AS n, MAX(protein) FROM recipes \
                   WHERE calories > 300 GROUP BY cuisine ORDER BY cuisine";
                  (* join: exercises the scan-pull fallback *)
                  "SELECT a.id, b.id FROM recipes a, recipes b WHERE a.id < \
                   b.id AND a.calories + b.calories < 500 ORDER BY a.id, b.id";
                  (* router-local table lifecycle *)
                  "CREATE TABLE note (k TEXT, n INT)";
                  "INSERT INTO note VALUES ('x', 1), ('y', 2)";
                  "SELECT * FROM note ORDER BY k";
                  (* DML on the sharded table: routed INSERT, broadcast
                     UPDATE/DELETE, then re-aggregate *)
                  "INSERT INTO recipes VALUES (900, 'added #900', 'thai', \
                   'free', 512, 30, 10, 40, 5, 9.5, 4.5, 25), (901, 'added \
                   #901', 'greek', 'full', 610, 22, 20, 50, 9, 11.25, 3.5, 40)";
                  "SELECT COUNT(*), SUM(calories) FROM recipes";
                  "UPDATE recipes SET rating = 5 WHERE id >= 900";
                  "SELECT id, rating FROM recipes WHERE id >= 900 ORDER BY id";
                  "DELETE FROM recipes WHERE id = 901";
                  "SELECT COUNT(*) FROM recipes";
                  (* the router re-prints every statement it forwards, so
                     float literals keep every digit and quoted strings
                     their doubled quotes on the way to the shards *)
                  "INSERT INTO recipes VALUES (902, 'O''Brien''s stew', \
                   'irish', 'free', 512, 30, 10, 40, 5, 1.0000001, \
                   123.45678, 25), (903, 'plain', 'irish', 'free', 500, 30, \
                   10, 40, 5, 1.0, 3.0, 25)";
                  "SELECT id, name FROM recipes WHERE name = 'O''Brien''s stew'";
                  "SELECT COUNT(*) FROM recipes WHERE cost = 1.0000001";
                  "SELECT COUNT(*) FROM recipes WHERE cost > 1 AND cost < 1.000001";
                  "UPDATE recipes SET rating = 123.45679 WHERE name LIKE 'O''Brien%'";
                  "SELECT id FROM recipes WHERE rating = 123.45679";
                  "DELETE FROM recipes WHERE cost = 1.0000001";
                  "SELECT COUNT(*) FROM recipes WHERE id >= 902";
                  "DROP TABLE note";
                  "\\schema recipes";
                  "sel ect nonsense";
                ]
              in
              let gov () = Gov.create () in
              List.iter
                (fun line ->
                  let expected = Pb_shell.Repl.handle repl line in
                  let got = Router.handle router ~gov:(gov ()) line in
                  Alcotest.(check string) line expected.Pb_shell.Repl.output
                    got.Pb_shell.Repl.output)
                inputs;
              (* PaQL: sketch-refine is anytime — its package may be
                 suboptimal, so assert soundness, not equality: the
                 router's objective cannot exceed the single-node
                 optimum (MAXIMIZE), and the strategy must be the
                 shard-grouped sketch-refine *)
              let contains hay needle =
                let n = String.length needle and h = String.length hay in
                let rec go i =
                  i + n <= h && (String.sub hay i n = needle || go (i + 1))
                in
                go 0
              in
              let objective_of out =
                out |> String.split_on_char '\n'
                |> List.find_map (fun l ->
                       match String.split_on_char ' ' l with
                       | [ "objective:"; v ] -> float_of_string_opt v
                       | _ -> None)
              in
              let expected = Pb_shell.Repl.handle repl paql_line in
              let got = Router.handle router ~gov:(gov ()) paql_line in
              (match
                 ( objective_of expected.Pb_shell.Repl.output,
                   objective_of got.Pb_shell.Repl.output )
               with
              | Some opt, Some routed ->
                  Alcotest.(check bool)
                    (Printf.sprintf "router objective %g bounded by optimum %g"
                       routed opt)
                    true
                    (routed <= opt +. 1e-9)
              | _ -> Alcotest.fail "both sides must report an objective");
              Alcotest.(check bool) "router found a package" true
                (contains got.Pb_shell.Repl.output "-- package of");
              Alcotest.(check bool) "router reports sketch-refine" true
                (contains got.Pb_shell.Repl.output "sketch-refine");
              (* aggregated health over the query wire *)
              let h = Router.health_json router in
              Alcotest.(check bool) "health ok" true
                (String.length h >= 16 && String.sub h 0 16 = "{\"status\":\"ok\",\"")))
  )

let suite =
  [
    Alcotest.test_case "hash golden values" `Quick test_hash_golden;
    Alcotest.test_case "hash discriminates types and boundaries" `Quick
      test_hash_discriminates;
    Alcotest.test_case "filter_shard partitions completely" `Quick
      test_partition_complete;
    Alcotest.test_case "hash survives the data-mode codec" `Quick
      test_hash_survives_data_codec;
    Alcotest.test_case "merge plan equals single node" `Quick
      test_merge_differential;
    Alcotest.test_case "merge planner refuses the unmergeable" `Quick
      test_merge_refusals;
    Alcotest.test_case "router matches single node over sockets" `Quick
      test_router_matches_single_node;
  ]
