(* The in-process PaQL workloads. One analyst (a closed loop with a
   single caller) runs exploration sessions through Pb_core.Engine.run,
   the entry point the shell and the server use, and between queries
   inspects the table and annotates a shortlist through the shell's SQL
   path (Pb_shell.Repl: plan cache, executor, rendering). *)

type budgets = { milp_nodes : int; bf_candidates : int; ls_restarts : int }

type spec = {
  name : string;
  rows : int;
  sketch : bool;  (** Sketch_refine instead of the default Hybrid *)
  session_len : int;  (** queries per session: a base query plus tweaks *)
  sessions : int;  (** sessions in the query catalog *)
  tails : (Report.cls * float) list;
      (** per-class tail percentile: the highest with ≥ 10 samples beyond
          it at the nominal run length *)
  limit_s : float;  (** latency limit behind slo_rate_rps *)
}

(* 600 rows: the dense-tableau ILP of a tweak takes 5-500 ms, so a 25 s
   run sees ~450 queries; larger tables leave too few samples per run. *)
let explore =
  { name = "paql_explore"; rows = 600; sketch = false; session_len = 3; sessions = 40;
    tails = [ (Report.Paql, 0.97); (Report.Read, 0.97); (Report.Write, 0.97) ]; limit_s = 0.5 }

(* 10k rows: 100 partitions and 0.2-0.4 s per query, so a 25 s run sees
   three catalog passes, 108 queries; large enough that whole-relation ILP is not the answer. *)
let sketch =
  { name = "paql_sketch"; rows = 10_000; sketch = true; session_len = 3; sessions = 12;
    tails = [ (Report.Paql, 0.9); (Report.Read, 0.9); (Report.Write, 0.9) ]; limit_s = 1.5 }

type op = Query of string | Next of string | Read of string | Write of string

let strategy spec =
  if spec.sketch then Pb_core.Engine.Sketch_refine Pb_core.Sketch_refine.default_params
  else Pb_core.Engine.Hybrid

let gov b = Pb_util.Gov.create ~milp_nodes:b.milp_nodes ~bf_candidates:b.bf_candidates ~ls_restarts:b.ls_restarts ()

(* The analyst's query catalog: [sessions] sessions of a base query and
   its single-constraint tweaks (RHS-only for sketch), drawn once from a
   fixed catalog seed. Solve times differ by orders of magnitude between
   queries, so a run's median is only comparable across seeds when every
   run works through the same catalog; --seed sets the order of the
   sessions and the statements in between. *)
let catalog_seed = 20_140_902

let catalog spec =
  let st = Random.State.make [| catalog_seed |] in
  Array.init spec.sessions (fun _ ->
      let base = if spec.sketch then Gen.sketch_base st else Gen.explore_base st in
      let step = if spec.sketch then Gen.rhs_tweak else Gen.tweak in
      let rec queries q k = if k = 0 then [] else Gen.paql_text q :: queries (step st q) (k - 1) in
      queries base spec.session_len)

(* One session as operations: each answer is followed by one inspection
   read and one shortlist write; every other explore session also asks
   for two more packages after one of its queries. *)
let session_ops spec st reads i queries =
  let next_at = if spec.sketch || i mod 2 = 1 then -1 else Random.State.int st spec.session_len in
  List.concat
    (List.mapi
       (fun j text ->
         (Query text :: (if j = next_at then [ Next text ] else []))
         @ [ Read (Gen.pick st reads); Write (Gen.shortlist_write st) ])
       queries)

type env = { db : Pb_sql.Database.t; repl : Pb_shell.Repl.state; setup_s : float; build_s : float }

(* The analyst's table is the workload's fixed dataset: generated, but
   from a fixed data seed, while --seed draws the sessions. Branch-and-
   bound effort moves several-fold with the data realisation, so a table
   drawn per run made the medians of runs at different seeds differ by
   more than any bound a change could be held to. *)
let data_seed = 20_140_901

(* Generate and load the data, build and warm the columnar image. *)
let setup spec =
  let seed = data_seed in
  let t0 = Unix.gettimeofday () in
  let recipes = Filename.concat !Procs.out_dir (spec.name ^ "-recipes.csv") in
  let shortlist = Filename.concat !Procs.out_dir (spec.name ^ "-shortlist.csv") in
  Gen.write_file recipes (Gen.recipes_csv ~seed ~rows:spec.rows);
  Gen.write_file shortlist (Gen.shortlist_csv ~seed ~rows:spec.rows);
  let db = Pb_sql.Database.create () in
  Pb_sql.Database.load_csv db ~name:"recipes" recipes;
  Pb_sql.Database.load_csv db ~name:"shortlist" shortlist;
  let t1 = Unix.gettimeofday () in
  ignore (Pb_sql.Database.columnar db "recipes" (Pb_sql.Database.find_exn db "recipes"));
  let build_s = Unix.gettimeofday () -. t1 in
  let repl = Pb_shell.Repl.create db in
  ignore (Pb_shell.Repl.handle repl "SELECT COUNT(*) FROM recipes");
  { db; repl; setup_s = Unix.gettimeofday () -. t0; build_s }

(* Set up nine times and keep the last; set-up time is their median.
   Each earlier copy is dropped and compacted away before the next set-up,
   so it stays out of peak RSS. *)
let setup_repeated spec =
  let rec go k times builds =
    let e = setup spec in
    let times = e.setup_s :: times and builds = e.build_s :: builds in
    if k = 1 then (e, Pb_util.Stats.median times, Pb_util.Stats.mean builds)
    else begin
      Gc.compact ();
      go (k - 1) times builds
    end
  in
  go 9 [] []

(* Expected read answers come from the row interpreter on the same
   data; writes touch only the shortlist, which no read mentions. *)
let expected_reads env reads =
  let oracle = Pb_shell.Repl.create env.db in
  let mode = Pb_store.Mode.current () in
  Pb_store.Mode.set Pb_store.Mode.Row;
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun text -> Hashtbl.replace tbl text (Pb_shell.Repl.handle oracle text).Pb_shell.Repl.output)
    reads;
  Pb_store.Mode.set mode;
  tbl

(* The proven optimum of every catalog query on the workload's fixed
   table, by whole-relation ILP without budgets: what [Optima] holds.
   [None] means no valid package exists. *)
let reference spec =
  let env = setup spec in
  List.map
    (fun text ->
      let ast = Pb_paql.Parser.parse text in
      let r, s =
        Pb_util.Stats.timeit (fun () ->
            Pb_core.Engine.run ~gov:(Pb_util.Gov.unlimited ()) ~strategy:Pb_core.Engine.Ilp env.db ast)
      in
      Printf.eprintf "%s: %s in %.2f s\n%!" spec.name (Pb_core.Engine.proof_to_string r.proof) s;
      match (r.proof, r.objective) with
      | Pb_core.Engine.Optimal, Some v -> (text, Some v)
      | Pb_core.Engine.Infeasible, _ -> (text, None)
      | _ -> failwith ("reference optimum not proven for " ^ text))
    (List.sort_uniq compare (List.concat (Array.to_list (catalog spec))))

let counter name = Option.value (List.assoc_opt name (Pb_obs.Metrics.snapshot ())) ~default:0.0

let lp_counters () =
  let s = Pb_obs.Metrics.snapshot () in
  let get k = Option.value (List.assoc_opt k s) ~default:0.0 in
  (get "pb_milp_nodes_total", get "pb_lp_pivots_total", get "pb_milp_solves_total", get "pb_lp_solves_total")

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Per-layer accounting of the traced run. *)

type layers = {
  mutable queries : int;
  mutable engine_plain : float list;  (** Engine.run with library tracing off *)
  mutable engine_traced : float list;  (** the same call under a trace context *)
  mutable rows : (float * (string * float) list) list;  (** PaQL total, layer times *)
  mutable sql_rows : (float * (string * float) list) list;  (** SQL read total, layer times *)
  mutable candidates : float;
  mutable parse : float;
  mutable coeffs : float;
  mutable translate : float;
  mutable partition : float;
  mutable partition_in_search : float;
  mutable sketch_s : float;
  mutable refine_s : float;
  mutable refine_steps : int;
  mutable refined : int;
  mutable milp_s : float;
  mutable unaccounted : float;
  mutable strategies : (string * int) list;
  mutable sql_prepare : float;
  mutable sql_plan : float;
  mutable sql_exec : float;
  mutable sql_reads : int;
  mutable nodes : float;
  mutable pivots : float;
  mutable milp_solves : float;
  mutable lp_solves : float;
}

let new_layers () =
  { queries = 0; engine_plain = []; engine_traced = []; rows = []; sql_rows = []; candidates = 0.0;
    parse = 0.0; coeffs = 0.0; translate = 0.0; partition = 0.0; partition_in_search = 0.0;
    sketch_s = 0.0; refine_s = 0.0; refine_steps = 0; refined = 0; milp_s = 0.0; unaccounted = 0.0;
    strategies = []; sql_prepare = 0.0; sql_plan = 0.0; sql_exec = 0.0; sql_reads = 0;
    nodes = 0.0; pivots = 0.0; milp_solves = 0.0; lp_solves = 0.0 }

let strategy_key s =
  if Str_util.find s "sketch" <> None then "sketch_refine"
  else if Str_util.find s "ilp" <> None then "ilp"
  else if Str_util.find s "local" <> None then "local_search"
  else if Str_util.find s "brute" <> None then "brute_force"
  else "other"

let timed name f = Pb_util.Stats.timeit (fun () -> Spans.with_span name f)

(* Replay one query layer by layer through the libraries' public
   functions, each call inside one of the benchmark's spans. *)
let replay_layers spec b env ast (l : layers) =
  let c, coeffs_s = timed "paql.coeffs" (fun () -> Pb_core.Coeffs.make env.db ast) in
  l.candidates <- l.candidates +. float_of_int c.Pb_core.Coeffs.n;
  l.coeffs <- l.coeffs +. coeffs_s;
  if spec.sketch then begin
    let features =
      Pb_paql.Analyze.aggregate_arguments ast
      |> List.map (Pb_core.Coeffs.tuple_values c)
      |> Array.of_list
    in
    let n = c.Pb_core.Coeffs.n in
    let target = int_of_float (Float.round (sqrt (float_of_int n))) in
    let _, part_s = timed "sr.partition" (fun () -> Pb_core.Partition.build ~target ~features ~n) in
    let out, _ =
      timed "sr.search" (fun () ->
          Pb_core.Sketch_refine.search ~params:Pb_core.Sketch_refine.default_params
            ~pool:(Pb_par.Pool.get_default ()) ~gov:(gov b) c)
    in
    l.partition <- l.partition +. part_s;
    l.partition_in_search <- l.partition_in_search +. out.Pb_core.Sketch_refine.partition_seconds;
    l.sketch_s <- l.sketch_s +. out.Pb_core.Sketch_refine.sketch_seconds;
    l.refine_s <- l.refine_s +. out.Pb_core.Sketch_refine.refine_seconds;
    l.refine_steps <- l.refine_steps + out.Pb_core.Sketch_refine.refine_steps;
    l.refined <- l.refined + out.Pb_core.Sketch_refine.refined_partitions;
    [ ("paql.coeffs", coeffs_s); ("sr.partition", part_s);
      ("sr.sketch", out.Pb_core.Sketch_refine.sketch_seconds);
      ("sr.refine", out.Pb_core.Sketch_refine.refine_seconds) ]
  end
  else
    match c.Pb_core.Coeffs.formula with
    | Error _ -> [ ("paql.coeffs", coeffs_s) ]
    | Ok _ ->
        let t, translate_s = timed "core.translate" (fun () -> Pb_core.Translate.build c) in
        let _, milp_s = timed "milp.bnb" (fun () -> Pb_lp.Milp.solve ~gov:(gov b) t.Pb_core.Translate.model) in
        l.translate <- l.translate +. translate_s;
        l.milp_s <- l.milp_s +. milp_s;
        [ ("paql.coeffs", coeffs_s); ("core.translate", translate_s); ("milp.bnb", milp_s) ]

(* ------------------------------------------------------------------ *)

type outcome = {
  samples : Report.sample list;
  wall : float;
  qualities : float list;  (** per answer of the first catalog pass, against [Optima] *)
  optimal : int;
  values : (string * float) list;
}

let run spec ~budgets:b ~seed ~seconds ~trace =
  let env, setup_s, build_s = setup_repeated spec in
  (* Quality is taken over the first pass through the catalog, the same
     queries at every seed. *)
  let quality_n = spec.sessions * spec.session_len in
  let st = Random.State.make [| seed; 0x0e |] in
  let reads = Gen.sql_reads 24 in
  let expected = expected_reads env reads in
  let strategy = strategy spec in
  let pending = Queue.create () in
  (* Sessions in seeded order, each catalog pass reshuffled. *)
  let catalog = catalog spec in
  let next_session = Gen.walk st (Array.length catalog) and started = ref 0 in
  let next_op () =
    if Queue.is_empty pending then begin
      let i = next_session () in
      incr started;
      List.iter (fun o -> Queue.add o pending) (session_ops spec st reads i catalog.(i))
    end;
    Queue.pop pending
  in
  (* Runs end on a pass boundary, so every run measures whole passes
     through the catalog: the same multiset of queries at every seed. *)
  let mid_pass () = !started = 0 || not (Queue.is_empty pending && !started mod Array.length catalog = 0) in
  let samples = ref [] and qualities = ref [] and certified = ref [] and optimal = ref 0 and answers = ref 0 in
  let l = new_layers () in
  let writes = ref 0 in
  let c0 = Pb_obs.Metrics.snapshot () in
  let t_start = now () in
  let soft = t_start +. float_of_int seconds and hard = t_start +. Float.max 60.0 (4.0 *. float_of_int seconds) in
  let log = open_out (Filename.concat !Procs.out_dir (Printf.sprintf "requests-%s-%d.tsv" spec.name seed)) in
  output_string log "class\tlatency_s\tok\ttext\n";
  let record ?(what = "") cls latency ok =
    if not ok then Printf.printf "failed %s: %s\n%!" (Report.cls_name cls) what;
    Printf.fprintf log "%s\t%.6f\t%b\t%s\n" (Report.cls_name cls) latency ok what;
    samples := { Report.cls; latency; ok } :: !samples
  in
  let op_i = ref 0 in
  while (now () < soft || mid_pass ()) && now () < hard do
    incr op_i;
    let trace_id = Printf.sprintf "%s-%d" spec.name !op_i in
    match next_op () with
    | Query text ->
        let before = if trace then Some (lp_counters ()) else None in
        let t0 = now () in
        let ast = Pb_paql.Parser.parse text in
        let t_parse = now () -. t0 in
        let r = Pb_core.Engine.run ~gov:(gov b) ~strategy env.db ast in
        let latency = now () -. t0 in
        let best = Optima.find text in
        Option.iter
          (fun (n0, p0, m0, s0) ->
            let n1, p1, m1, s1 = lp_counters () in
            l.nodes <- l.nodes +. (n1 -. n0);
            l.pivots <- l.pivots +. (p1 -. p0);
            l.milp_solves <- l.milp_solves +. (m1 -. m0);
            l.lp_solves <- l.lp_solves +. (s1 -. s0))
          before;
        record Report.Paql latency (Check.engine_result ~db:env.db ~best ast r)
          ~what:
            (Printf.sprintf "%s -> %s by %s, objective %s, %s, %s" text (Pb_core.Engine.proof_to_string r.proof)
               r.strategy_used
               (match r.objective with Some v -> Printf.sprintf "%.17g" v | None -> "none")
               (if r.package = None then "no package" else "package")
               (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) r.stats)));
        incr answers;
        if !answers <= quality_n then begin
          qualities := Check.engine_quality ~best r :: !qualities;
          certified := Report.certified_quality r :: !certified;
          if r.proof = Pb_core.Engine.Optimal then incr optimal
        end;
        if trace then begin
          let engine_plain = latency -. t_parse in
          let (_, layer_times), _ =
            Spans.request trace_id "paql.request" (fun () ->
                let ast, parse_s = timed "paql.parse" (fun () -> Pb_paql.Parser.parse text) in
                let (_, lib_spans), engine_traced =
                  timed "engine.run" (fun () ->
                      Pb_obs.Trace.with_context ~trace_id:(Printf.sprintf "%032x" !op_i) (fun () ->
                          Pb_core.Engine.run ~gov:(gov b) ~strategy env.db ast))
                in
                l.engine_traced <- engine_traced :: l.engine_traced;
                l.parse <- l.parse +. parse_s;
                Spans.add (Spans.of_lib trace_id lib_spans);
                ((), ("paql.parse", parse_s) :: replay_layers spec b env ast l))
          in
          let used = strategy_key r.strategy_used in
          let counted =
            if spec.sketch || used = "ilp" then layer_times
            else List.filter (fun (k, _) -> k = "paql.parse" || k = "paql.coeffs") layer_times
          in
          let total = latency in
          let accounted = Stats.sum (List.map snd counted) in
          l.unaccounted <- l.unaccounted +. (total -. accounted);
          l.rows <- (total, counted) :: l.rows;
          l.engine_plain <- engine_plain :: l.engine_plain;
          l.queries <- l.queries + 1;
          l.strategies <-
            (used, 1 + Option.value (List.assoc_opt used l.strategies) ~default:0)
            :: List.remove_assoc used l.strategies
        end
    | Next text ->
        let t0 = now () in
        let ast = Pb_paql.Parser.parse text in
        let pkgs = Pb_core.Engine.next_packages ~gov:(gov b) ~limit:2 env.db ast in
        let latency = now () -. t0 in
        record Report.Paql latency ~what:("next packages of " ^ text)
          (pkgs <> [] && List.for_all (Pb_paql.Semantics.is_valid ~db:env.db ast) pkgs)
    | Read text ->
        let want = Hashtbl.find expected text in
        let t0 = now () in
        let out = (Pb_shell.Repl.handle env.repl text).Pb_shell.Repl.output in
        let latency = now () -. t0 in
        record Report.Read latency ~what:text (out = want);
        if trace then begin
          let (_, spans), total =
            Spans.request trace_id "sql.request" (fun () ->
                Pb_obs.Trace.with_context ~trace_id:(Printf.sprintf "%032x" !op_i) (fun () ->
                    Pb_shell.Repl.handle env.repl text))
          in
          let spans = Spans.of_lib trace_id spans in
          Spans.add spans;
          let selfs = Spans.self_times spans in
          let prepare = Spans.self_of [ "sql.prepare"; "sql.compile" ] selfs in
          let plan = Spans.self_of [ "sql.plan" ] selfs in
          let exec = Spans.self_of Spans.sql_exec selfs in
          l.sql_prepare <- l.sql_prepare +. prepare;
          l.sql_plan <- l.sql_plan +. plan;
          l.sql_exec <- l.sql_exec +. exec;
          l.sql_reads <- l.sql_reads + 1;
          l.sql_rows <- (total, [ ("sql.prepare", prepare); ("sql.plan", plan); ("sql.exec", exec) ]) :: l.sql_rows
        end
    | Write text ->
        let t0 = now () in
        let out = (Pb_shell.Repl.handle env.repl text).Pb_shell.Repl.output in
        let latency = now () -. t0 in
        incr writes;
        record Report.Write latency ~what:(text ^ " -> " ^ out) (Check.write_ok out)
  done;
  let wall = now () -. t_start in
  close_out log;
  let c1 = Pb_obs.Metrics.snapshot () in
  let delta name =
    Option.value (List.assoc_opt name c1) ~default:0.0 -. Option.value (List.assoc_opt name c0) ~default:0.0
  in
  let samples = !samples in
  let ok_n = List.length (List.filter (fun s -> s.Report.ok) samples) in
  let paql_n = List.length (Report.latencies Report.Paql samples) in
  let goodput =
    float_of_int
      (List.length (List.filter (fun s -> s.Report.ok && s.Report.latency <= spec.limit_s) samples))
    /. wall
  in
  let quality = Pb_util.Stats.mean !qualities in
  let e2e =
    [ ("setup_s", setup_s); ("peak_rss_mb", Procs.peak_rss_mb 0);
      ("ok_ratio", float_of_int ok_n /. float_of_int (List.length samples)) ]
    @ Report.latency_metrics ~tail_p:(List.assoc Report.Paql spec.tails) Report.Paql samples
    @ [ ("paql_qps", float_of_int paql_n /. wall) ]
    @ Report.latency_metrics ~tail_p:(List.assoc Report.Read spec.tails) Report.Read samples
    @ Report.latency_metrics ~tail_p:(List.assoc Report.Write spec.tails) Report.Write samples
    @ [ ("slo_rate_rps", goodput); ("package_quality", quality) ]
  in
  let q = float_of_int (max 1 l.queries) in
  let per_query x = x /. q in
  let solver_s = if spec.sketch then l.sketch_s +. l.refine_s else l.milp_s in
  let strat k = float_of_int (Option.value (List.assoc_opt k l.strategies) ~default:0) in
  let sql_n = float_of_int (max 1 l.sql_reads) in
  let layer =
    if not trace then []
    else begin
      Printf.printf "p50 decomposition (%s):\n" spec.name;
      Decompose.print "paql" l.rows;
      Decompose.print "sql_read" l.sql_rows;
      Printf.printf "  partition cross-check: Partition.build %.6f s/query, search's own phase %.6f s/query\n"
        (per_query l.partition) (per_query l.partition_in_search);
      [ ("paql.parse_s", per_query l.parse);
        ("paql.candidates", per_query l.candidates);
        ("core.coeffs_s", per_query l.coeffs);
        ("core.translate_s", per_query l.translate);
        ("core.partition_s", per_query l.partition);
        ("core.sketch_s", per_query l.sketch_s);
        ("core.refine_s", per_query l.refine_s);
        ("core.refine_steps", per_query (float_of_int l.refine_steps));
        ("core.refine_useful_ratio", Stats.ratio (float_of_int l.refined) (float_of_int l.refine_steps));
        ("core.engine_unaccounted_s", per_query l.unaccounted);
        ("core.strategy_mix.ilp", strat "ilp");
        ("core.strategy_mix.sketch_refine", strat "sketch_refine");
        ("core.strategy_mix.local_search", strat "local_search");
        ("core.strategy_mix.brute_force", strat "brute_force");
        ("core.strategy_mix.other", strat "other");
        ("core.optimal_share", float_of_int !optimal /. float_of_int (max 1 (List.length !qualities)));
        ("core.package_gap", 1.0 -. Pb_util.Stats.mean !certified);
        ("lp.milp_s", per_query solver_s);
        ("lp.bb_nodes", per_query l.nodes);
        ("lp.pivots_per_node", Stats.ratio l.pivots l.nodes);
        ("lp.nodes_per_s", Stats.ratio l.nodes solver_s);
        ("lp.solves_per_query", per_query l.milp_solves);
        ("lp.lp_solves_per_query", per_query l.lp_solves);
        ("sql.prepare_s", l.sql_prepare /. sql_n);
        ("sql.plan_s", l.sql_plan /. sql_n);
        ("sql.exec_s", l.sql_exec /. sql_n);
        ("sql.plan_cache_hit_ratio",
          Stats.ratio (delta "pb_sql_plan_cache_hits_total")
            (delta "pb_sql_plan_cache_hits_total" +. delta "pb_sql_plan_cache_misses_total"));
        ("sql.rows_scanned_per_returned",
          Stats.ratio (delta "pb_sql_rows_scanned_total") (delta "pb_sql_rows_returned_total"));
        ("store.columnar_ratio", Stats.ratio (delta "pb_store_selects_total") (delta "pb_sql_selects_total"));
        ("store.tables_built_per_write", Stats.ratio (delta "pb_store_tables_built_total") (float_of_int !writes));
        ("store.build_s", build_s);
        ("store.chunks_per_scan", Stats.ratio (delta "pb_store_chunks_scanned_total") (delta "pb_store_scans_total"));
        ("store.bytes_resident", counter "pb_store_bytes_resident");
        ("obs.trace_overhead_ratio", Stats.ratio (Pb_util.Stats.median l.engine_traced) (Pb_util.Stats.median l.engine_plain));
        ("loadgen.sent", float_of_int (List.length samples));
        ("loadgen.completed", float_of_int (List.length samples));
        ("loadgen.fail_ratio", 1.0 -. (float_of_int ok_n /. float_of_int (List.length samples))) ]
    end
  in
  { samples; wall; qualities = List.rev !qualities; optimal = !optimal; values = e2e @ layer }
