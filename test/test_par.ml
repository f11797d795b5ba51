(* Tests for the Pb_par domain pool: primitive correctness, determinism
   of engine reports and SQL results across pool sizes, and exact
   metric/trace totals under concurrent hammering from 8 domains. *)

module Pool = Pb_par.Pool
module Metrics = Pb_obs.Metrics
module Trace = Pb_obs.Trace
module Engine = Pb_core.Engine
module Coeffs = Pb_core.Coeffs
module Relation = Pb_relation.Relation
module Parser = Pb_paql.Parser

let pool_sizes = [ 1; 2; 8 ]

(* Route code that reads the default pool (the SQL operators) through a
   specific size, restoring the PB_DOMAINS-derived default afterwards so
   later suites see the environment's configuration. *)
let with_default_size k f =
  Pool.set_default_size k;
  Fun.protect ~finally:(fun () -> Pool.set_default_size (Pool.env_size ())) f

(* ---- pool primitives ------------------------------------------------- *)

let test_map_reduce () =
  List.iter
    (fun size ->
      Pool.with_pool size (fun pool ->
          let n = 10_001 in
          let total =
            Pool.map_reduce pool ~n
              ~map:(fun ~lo ~hi ->
                let s = ref 0 in
                for i = lo to hi - 1 do
                  s := !s + i
                done;
                !s)
              ~reduce:( + ) 0
          in
          Alcotest.(check int)
            (Printf.sprintf "sum 0..%d at pool size %d" (n - 1) size)
            (n * (n - 1) / 2)
            total))
    pool_sizes

let test_parallel_for () =
  List.iter
    (fun size ->
      Pool.with_pool size (fun pool ->
          let n = 5000 in
          let out = Array.make n 0 in
          Pool.parallel_for pool n (fun i -> out.(i) <- (2 * i) + 1);
          Alcotest.(check bool)
            (Printf.sprintf "every slot written at pool size %d" size)
            true
            (Array.for_all Fun.id (Array.mapi (fun i v -> v = (2 * i) + 1) out))))
    pool_sizes

let test_map_chunks_order () =
  List.iter
    (fun size ->
      Pool.with_pool size (fun pool ->
          let n = 997 in
          let parts =
            Pool.map_chunks pool ~n (fun ~lo ~hi ->
                List.init (hi - lo) (fun k -> lo + k))
          in
          Alcotest.(check (list int))
            (Printf.sprintf "chunk concat = identity at pool size %d" size)
            (List.init n Fun.id) (List.concat parts)))
    pool_sizes

let test_map_chunks_exception () =
  Pool.with_pool 4 (fun pool ->
      Alcotest.check_raises "chunk exception propagates"
        (Invalid_argument "boom") (fun () ->
          ignore
            (Pool.map_chunks pool ~n:100 (fun ~lo ~hi:_ ->
                 if lo = 0 then invalid_arg "boom" else 0))))

(* Workers exist only while there is work: a fresh pool holds none, a
   region brings up as many as its chunks can use, and an idle pool
   retires them, so a sequential workload at PB_DOMAINS > 1 keeps no
   parked domain for every minor collection to wake. *)
let test_idle_pool_holds_no_domain () =
  Pool.with_pool 4 (fun pool ->
      Alcotest.(check int) "fresh pool" 0 (Pool.live_workers pool);
      let region label =
        let at_first_chunk = ref (-1) in
        let total =
          Pool.map_reduce pool ~chunk_size:1 ~n:32
            ~map:(fun ~lo ~hi:_ ->
              if lo = 0 then at_first_chunk := Pool.live_workers pool;
              Unix.sleepf 0.001;
              lo)
            ~reduce:( + ) 0
        in
        Alcotest.(check int) (label ^ ": sum") (32 * 31 / 2) total;
        Alcotest.(check int) (label ^ ": workers during the region") 3 !at_first_chunk;
        (* Idle workers retire after two major collections without a
           region; each [full_major] ends at least one. *)
        let until = Unix.gettimeofday () +. 5.0 in
        while Pool.live_workers pool > 0 && Unix.gettimeofday () < until do
          Gc.full_major ();
          Unix.sleepf 0.001
        done;
        Alcotest.(check int) (label ^ ": workers once idle") 0 (Pool.live_workers pool)
      in
      region "first region";
      region "after retiring")

(* ---- engine determinism ---------------------------------------------- *)

let recipes_db n =
  let db = Pb_sql.Database.create () in
  Pb_sql.Database.put db "recipes" (Pb_workload.Workload.recipes ~seed:7 ~n ());
  db

let meal_query =
  "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' SUCH THAT \
   COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 MAXIMIZE \
   SUM(P.protein)"

let report_fingerprint (r : Engine.result) =
  let pkg =
    match r.package with
    | None -> "none"
    | Some p ->
        String.concat ","
          (List.map string_of_int (Array.to_list (Pb_paql.Package.multiplicities p)))
  in
  Printf.sprintf "pkg=[%s] obj=%s proof=%s strategy=%s stats=[%s]" pkg
    (match r.objective with None -> "none" | Some v -> Printf.sprintf "%.9g" v)
    (Engine.proof_to_string r.proof)
    r.strategy_used
    (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) r.stats))

let check_strategy_deterministic name strategy ~ilp_max_nodes =
  let run size =
    let db = recipes_db 18 in
    let c = Coeffs.make db (Parser.parse meal_query) in
    Pool.with_pool size (fun pool ->
        with_default_size size (fun () ->
            let gov = Pb_util.Gov.create ~milp_nodes:ilp_max_nodes () in
            report_fingerprint (Engine.run_coeffs ~pool ~gov ~strategy db c)))
  in
  let reference = run 1 in
  List.iter
    (fun size ->
      Alcotest.(check string)
        (Printf.sprintf "%s report identical at pool size %d" name size)
        reference (run size))
    pool_sizes

let test_brute_force_deterministic () =
  check_strategy_deterministic "brute-force+pruning"
    (Engine.Brute_force { use_pruning = true })
    ~ilp_max_nodes:200_000

let test_brute_force_nopruning_deterministic () =
  check_strategy_deterministic "brute-force"
    (Engine.Brute_force { use_pruning = false })
    ~ilp_max_nodes:200_000

(* Truncation boundary: the parallel replay must reproduce the exact
   sequential [examined] count and best-so-far when the budget bites. *)
let test_brute_force_budget_deterministic () =
  let db = recipes_db 18 in
  let c = Coeffs.make db (Parser.parse meal_query) in
  List.iter
    (fun budget ->
      let reference =
        Pool.with_pool 1 (fun pool ->
            Pb_core.Brute_force.search ~pool
              ~gov:(Pb_util.Gov.create ~bf_candidates:budget ())
              c)
      in
      List.iter
        (fun size ->
          Pool.with_pool size (fun pool ->
              let out =
                Pb_core.Brute_force.search ~pool
                  ~gov:(Pb_util.Gov.create ~bf_candidates:budget ())
                  c
              in
              let label what =
                Printf.sprintf "budget %d pool %d: %s" budget size what
              in
              Alcotest.(check int)
                (label "examined") reference.examined out.examined;
              Alcotest.(check bool)
                (label "complete") reference.complete out.complete;
              Alcotest.(check (option (float 1e-9)))
                (label "objective") reference.best_objective out.best_objective))
        pool_sizes)
    [ 1; 7; 64; 1000; 100_000 ]

(* Hybrid with a starved ILP budget exercises the local-search fallback
   and its merge. *)
let test_hybrid_deterministic () =
  check_strategy_deterministic "hybrid" Engine.Hybrid ~ilp_max_nodes:25

let test_hybrid_full_budget_deterministic () =
  check_strategy_deterministic "hybrid(full budget)" Engine.Hybrid
    ~ilp_max_nodes:200_000

(* Hybrid runs one path at every pool size: local search only follows an
   exact leg that stopped on its own budget without a proof. *)
let ls_rounds = Metrics.counter "pb_engine_local_search_rounds_total"
let ls_pairs = Metrics.counter "pb_engine_local_search_pairs_total"

(* Run [f] with tracing on; return its value, the names of the spans it
   recorded, and how far the local-search counters moved. *)
let traced_ls f =
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    (fun () ->
      let rounds = Metrics.counter_value ls_rounds
      and pairs = Metrics.counter_value ls_pairs in
      let v = f () in
      ( v,
        List.map (fun (sp : Trace.span) -> sp.name) (Trace.spans ()),
        Metrics.counter_value ls_rounds - rounds,
        Metrics.counter_value ls_pairs - pairs ))

let check_no_local_search label (_, spans, rounds, pairs) =
  Alcotest.(check bool)
    (label ^ ": no strategy.local-search span")
    false
    (List.mem "strategy.local-search" spans);
  Alcotest.(check int) (label ^ ": local-search rounds") 0 rounds;
  Alcotest.(check int) (label ^ ": local-search moves") 0 pairs

let test_hybrid_proven_ilp_runs_no_local_search () =
  let db = recipes_db 200 in
  let c = Coeffs.make db (Parser.parse meal_query) in
  Pool.with_pool 2 (fun pool ->
      let ((r : Engine.result), _, _, _) as run =
        traced_ls (fun () -> Engine.run_coeffs ~pool ~strategy:Engine.Hybrid db c)
      in
      Alcotest.(check string) "proof" "optimal" (Engine.proof_to_string r.proof);
      Alcotest.(check bool)
        "cost model chose ilp" true
        (String.starts_with ~prefix:"cost model chose ilp"
           (List.assoc "hybrid_choice" r.stats));
      check_no_local_search "proven ilp at pool size 2" run)

(* A token stop (cancellation, deadline) ends the run: the same proof
   and objective at pool sizes 1 and 2, and no local-search fallback. *)
let test_hybrid_token_stop_no_fallback () =
  let db = recipes_db 200 in
  let c = Coeffs.make db (Parser.parse meal_query) in
  List.iter
    (fun (label, make_gov) ->
      let run size =
        let ((r : Engine.result), _, _, _) as out =
          Pool.with_pool size (fun pool ->
              traced_ls (fun () ->
                  Engine.run_coeffs ~pool ~gov:(make_gov ())
                    ~strategy:Engine.Hybrid db c))
        in
        let label = Printf.sprintf "%s at pool size %d" label size in
        Alcotest.(check string)
          (label ^ ": proof") "cancelled" (Engine.proof_to_string r.proof);
        check_no_local_search label out;
        report_fingerprint r
      in
      Alcotest.(check string)
        (label ^ ": report identical at pool sizes 1 and 2")
        (run 1) (run 2))
    [
      ( "pre-cancelled",
        fun () ->
          let g = Pb_util.Gov.create () in
          Pb_util.Gov.cancel g;
          g );
      ("past deadline", fun () -> Pb_util.Gov.create ~deadline_in:(-1.0) ());
    ]

(* ---- SQL determinism ------------------------------------------------- *)

let sql_db () =
  let db = Pb_sql.Database.create () in
  Pb_sql.Database.put db "recipes" (Pb_workload.Workload.recipes ~seed:11 ~n:1500 ());
  db

let render rel =
  String.concat "\n"
    (List.map
       (fun row ->
         String.concat "|"
           (Array.to_list (Array.map Pb_relation.Value.to_string row)))
       (Relation.to_list rel))

let run_sql size sql =
  with_default_size size (fun () ->
      let db = sql_db () in
      match Pb_sql.Executor.execute_sql db sql with
      | Pb_sql.Executor.Rows rel -> render rel
      | _ -> Alcotest.fail "expected rows")

let check_sql_deterministic name sql =
  let reference = run_sql 1 sql in
  List.iter
    (fun size ->
      Alcotest.(check string)
        (Printf.sprintf "%s identical at pool size %d" name size)
        reference (run_sql size sql))
    pool_sizes

let test_sql_scan_deterministic () =
  check_sql_deterministic "filtered scan"
    "SELECT id, name, calories, protein FROM recipes WHERE calories > 400 AND \
     protein > 15 AND gluten = 'free'"

let test_sql_join_deterministic () =
  check_sql_deterministic "hash join"
    "SELECT a.id, b.id, a.cuisine FROM recipes a, recipes b WHERE a.cuisine = \
     b.cuisine AND a.calories < 350 AND b.calories < 350 AND a.id < b.id"

let test_sql_projection_deterministic () =
  check_sql_deterministic "wide projection"
    "SELECT id, calories + protein * 4, cost * 2.0, upper(gluten) FROM \
     recipes WHERE id > 10"

(* ---- concurrency hammer (regression: plain mutable registry lost
   updates under concurrent increments) -------------------------------- *)

let hammer_domains = 8
let hammer_per_domain = 20_000

let test_metrics_hammer () =
  let registry = Metrics.create () in
  let c = Metrics.counter ~registry "hammer_total" in
  let h = Metrics.histogram ~registry ~buckets:[ 0.5; 1.5 ] "hammer_hist" in
  Pool.with_pool hammer_domains (fun pool ->
      Pool.parallel_for pool ~chunk_size:1 hammer_domains (fun d ->
          for i = 1 to hammer_per_domain do
            Metrics.incr c;
            if i land 1023 = 0 then
              Metrics.observe h (float_of_int (d land 1))
          done));
  Alcotest.(check int)
    "counter total exact"
    (hammer_domains * hammer_per_domain)
    (Metrics.counter_value c);
  Alcotest.(check int)
    "histogram count exact"
    (hammer_domains * (hammer_per_domain / 1024))
    (Metrics.histogram_count h)

let test_trace_add_count_hammer () =
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    (fun () ->
      Pool.with_pool hammer_domains (fun pool ->
          Pool.parallel_for pool ~chunk_size:1 hammer_domains (fun _d ->
              Trace.with_span ~name:"hammer" (fun () ->
                  for _ = 1 to hammer_per_domain do
                    Trace.add_count "ticks" 1
                  done)));
      let total =
        List.fold_left
          (fun acc (sp : Trace.span) ->
            if sp.name = "hammer" then
              acc + Option.value (List.assoc_opt "ticks" sp.counters) ~default:0
            else acc)
          0 (Trace.spans ())
      in
      Alcotest.(check int)
        "span tick totals exact"
        (hammer_domains * hammer_per_domain)
        total)

let suite =
  [
    Alcotest.test_case "map_reduce sums deterministically" `Quick
      test_map_reduce;
    Alcotest.test_case "parallel_for covers every index" `Quick
      test_parallel_for;
    Alcotest.test_case "map_chunks preserves order" `Quick
      test_map_chunks_order;
    Alcotest.test_case "map_chunks propagates exceptions" `Quick
      test_map_chunks_exception;
    Alcotest.test_case "idle pool holds no worker domain" `Quick
      test_idle_pool_holds_no_domain;
    Alcotest.test_case "brute force identical at pool sizes 1/2/8" `Quick
      test_brute_force_deterministic;
    Alcotest.test_case "unpruned brute force identical across pools" `Quick
      test_brute_force_nopruning_deterministic;
    Alcotest.test_case "brute force budget boundary identical" `Quick
      test_brute_force_budget_deterministic;
    Alcotest.test_case "hybrid race identical at pool sizes 1/2/8" `Quick
      test_hybrid_deterministic;
    Alcotest.test_case "hybrid full budget identical across pools" `Quick
      test_hybrid_full_budget_deterministic;
    Alcotest.test_case "hybrid proven ilp runs no local search" `Quick
      test_hybrid_proven_ilp_runs_no_local_search;
    Alcotest.test_case "hybrid token stop: no fallback, pool-invariant" `Quick
      test_hybrid_token_stop_no_fallback;
    Alcotest.test_case "SQL scan results identical across pools" `Quick
      test_sql_scan_deterministic;
    Alcotest.test_case "SQL hash join results identical across pools" `Quick
      test_sql_join_deterministic;
    Alcotest.test_case "SQL projection identical across pools" `Quick
      test_sql_projection_deterministic;
    Alcotest.test_case "metrics survive an 8-domain hammer" `Quick
      test_metrics_hammer;
    Alcotest.test_case "trace counters survive an 8-domain hammer" `Quick
      test_trace_add_count_hammer;
  ]
