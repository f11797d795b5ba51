module Store = Pb_paql.Package_store
module Trace = Pb_obs.Trace
module Trace_store = Pb_obs.Trace_store
module Progress = Pb_obs.Progress
module Metrics = Pb_obs.Metrics
module Slow_log = Pb_obs.Slow_log
module Gov = Pb_util.Gov

type state = {
  db : Pb_sql.Database.t;
  cache : Pb_sql.Plan_cache.t;
  mutable last_query : Pb_paql.Ast.t option;
  mutable last_package : Pb_paql.Package.t option;
  mutable strategy : Pb_core.Engine.strategy;
      (* sticky per-session evaluation strategy, set by \strategy *)
}

let create ?cache db =
  let cache =
    match cache with Some c -> c | None -> Pb_sql.Plan_cache.create ()
  in
  {
    db;
    cache;
    last_query = None;
    last_package = None;
    strategy = Pb_core.Engine.Hybrid;
  }

let database st = st.db

type reaction = { output : string; quit : bool }

let ok output = { output; quit = false }

let help_text =
  String.concat "\n"
    [
      "PaQL queries (mentioning PACKAGE) and SQL statements run directly.";
      "Commands:";
      "  \\help                 this list";
      "  \\tables               list tables";
      "  \\schema TABLE         show a table's columns";
      "  \\packages             list saved packages";
      "  \\save NAME            save the last query's package";
      "  \\revalidate NAME      re-check a saved package";
      "  \\drop NAME            delete a saved package";
      "  \\explain QUERY        pruning bounds, cost model, plan";
      "  \\explain analyze QUERY run the query; print span tree + counters";
      "  \\metrics              dump the metrics registry (Prometheus text)";
      "  \\traces [ID]          list retained request traces / show one";
      "  \\slowlog [S|off|clear] slow-query log; S = threshold in seconds";
      "  \\plan SQL             show the SQL planner's decisions";
      "  \\strategy [NAME]      show or set the evaluation strategy";
      "  \\complete PREFIX      auto-suggest next tokens";
      "  \\next K QUERY         top-K packages";
      "  \\dump DIR             persist the database to a directory";
      "  \\quit                 leave";
    ]

let strip s = String.trim s

(* Heuristic dispatch: a statement that mentions the PACKAGE keyword is
   PaQL; anything else starting with a keyword is SQL. *)
let is_paql line =
  match Pb_sql.Lexer.tokenize line with
  | exception Pb_sql.Lexer.Lex_error _ -> false
  | tokens ->
      List.exists (function Pb_sql.Lexer.Keyword "PACKAGE" -> true | _ -> false) tokens

(* The sticky \strategy command: every name the engine knows, using the
   same spellings Engine.strategy_name prints in result footers. *)
let strategies =
  [
    ("hybrid", Pb_core.Engine.Hybrid);
    ("ilp", Pb_core.Engine.Ilp);
    ("brute-force", Pb_core.Engine.Brute_force { use_pruning = false });
    ("brute-force+pruning", Pb_core.Engine.Brute_force { use_pruning = true });
    ("local-search", Pb_core.Engine.Local_search Pb_core.Local_search.default_params);
    ("annealing", Pb_core.Engine.Anneal Pb_core.Annealing.default_params);
    ("sql-generation", Pb_core.Engine.Sql_generation Pb_core.Sql_generate.default_params);
    ("sketch-refine", Pb_core.Engine.Sketch_refine Pb_core.Sketch_refine.default_params);
  ]

let strategy_names = String.concat ", " (List.map fst strategies)

(* Proof annotation in the one-line strategy footer: proven outcomes
   keep the historical "(proven optimal)" wording, a governed stop is
   called out, a plain feasible answer stays bare. *)
let proof_suffix = function
  | Pb_core.Engine.Optimal | Pb_core.Engine.Infeasible -> " (proven optimal)"
  | Pb_core.Engine.Feasible -> ""
  | Pb_core.Engine.Cancelled -> " (cancelled)"

(* The objective line, if any, and the one-line strategy footer. *)
let add_footer buf (result : Pb_core.Engine.result) =
  Option.iter (fun v -> Buffer.add_string buf (Printf.sprintf "objective: %g\n" v)) result.objective;
  Buffer.add_string buf
    (Printf.sprintf "strategy: %s%s, %.3fs" result.strategy_used (proof_suffix result.proof)
       result.elapsed)

let render_paql_result (result : Pb_core.Engine.result) =
  let buf = Buffer.create 256 in
  (match result.package with
  | Some pkg -> Buffer.add_string buf (Pb_paql.Package.to_string pkg)
  | None -> Buffer.add_string buf "no valid package\n");
  add_footer buf result;
  Buffer.contents buf

let run_paql ?gov st text =
  match Pb_paql.Parser.parse text with
  | exception Pb_paql.Parser.Parse_error msg -> ok ("paql error: " ^ msg)
  | query -> (
      match Pb_core.Engine.run ?gov ~strategy:st.strategy st.db query with
      | exception Failure msg -> ok ("error: " ^ msg)
      | result ->
          st.last_query <- Some query;
          st.last_package <- result.Pb_core.Engine.package;
          ignore
            (Slow_log.observe ~query:text
               ~elapsed:result.Pb_core.Engine.elapsed);
          ok (render_paql_result result))

let run_sql ?gov st text =
  (* Prepared-statement path: repeat text skips lex/parse/resolve and
     reuses the cached statement's compiled closures via [memo]. *)
  match
    Pb_sql.Plan_cache.lookup st.cache st.db ~parse:Pb_sql.Parser.parse_script
      text
  with
  | exception Pb_sql.Parser.Parse_error msg -> ok ("sql error: " ^ msg)
  | statements, memo -> (
      let buf = Buffer.create 256 in
      match
        Trace.timed ~name:"sql.script" (fun () ->
            List.iter
              (fun stmt ->
                match Pb_sql.Executor.execute ~memo ?gov st.db stmt with
                | Pb_sql.Executor.Rows rel ->
                    Buffer.add_string buf
                      (Pb_relation.Relation.to_table ~max_rows:40 rel)
                | Pb_sql.Executor.Affected n ->
                    Buffer.add_string buf
                      (Printf.sprintf "%d row(s) affected\n" n)
                | Pb_sql.Executor.Created -> Buffer.add_string buf "ok\n")
              statements)
      with
      | (), elapsed ->
          ignore (Slow_log.observe ~query:text ~elapsed);
          ok (String.trim (Buffer.contents buf))
      | exception Pb_sql.Executor.Eval_error msg -> ok ("sql error: " ^ msg)
      | exception Gov.Interrupted r ->
          ok ("cancelled: " ^ Gov.reason_to_string r))

(* EXPLAIN ANALYZE: actually run the query with tracing on, then print
   the span tree plus the engine/SQL counter deltas the run caused. *)
let explain_analyze ?gov st text =
  match Pb_paql.Parser.parse text with
  | exception Pb_paql.Parser.Parse_error msg -> ok ("paql error: " ^ msg)
  | query -> (
      let was_enabled = Trace.is_enabled () in
      Trace.reset ();
      Trace.set_enabled true;
      let before = Metrics.snapshot () in
      match Pb_core.Engine.run ?gov ~strategy:st.strategy st.db query with
      | exception e ->
          Trace.set_enabled was_enabled;
          (match e with
          | Failure msg -> ok ("error: " ^ msg)
          | e -> raise e)
      | result ->
          let after = Metrics.snapshot () in
          let tree = Trace.render_tree () in
          Trace.set_enabled was_enabled;
          st.last_query <- Some query;
          st.last_package <- result.Pb_core.Engine.package;
          ignore
            (Slow_log.observe ~query:text
               ~elapsed:result.Pb_core.Engine.elapsed);
          let buf = Buffer.create 512 in
          Buffer.add_string buf tree;
          let deltas =
            List.filter_map
              (fun (name, v) ->
                let v0 =
                  Option.value (List.assoc_opt name before) ~default:0.0
                in
                if v > v0 then Some (name, v -. v0) else None)
              after
          in
          if deltas <> [] then begin
            Buffer.add_string buf "counters:\n";
            List.iter
              (fun (name, d) ->
                Buffer.add_string buf (Printf.sprintf "  %s +%g\n" name d))
              deltas
          end;
          (match result.Pb_core.Engine.progress with
          | [] -> ()
          | events ->
              Buffer.add_string buf "progress:\n";
              List.iter
                (fun e ->
                  Buffer.add_string buf
                    ("  " ^ Progress.event_to_string e ^ "\n"))
                events);
          (match result.Pb_core.Engine.stats with
          | [] -> ()
          | stats ->
              Buffer.add_string buf
                ("stats: "
                ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) stats)
                ^ "\n"));
          add_footer buf result;
          ok (Buffer.contents buf))

(* "\explain analyze Q" routes to explain_analyze; bare "\explain Q"
   keeps the static pruning/cost-model report. *)
let split_analyze text =
  let lower = String.lowercase_ascii text in
  let prefix = "analyze" in
  let n = String.length prefix in
  if
    String.length lower > n
    && String.sub lower 0 n = prefix
    && (lower.[n] = ' ' || lower.[n] = '\t')
  then Some (strip (String.sub text n (String.length text - n)))
  else None

let command ?gov st name raw_arg =
  (* \complete is whitespace-sensitive: "SELECT " and "SELECT" sit in
     different grammatical positions. Everything else trims. *)
  if name = "complete" then
    match Pb_explore.Complete.suggest st.db raw_arg with
    | [] -> ok "(no suggestions)"
    | suggestions -> ok (String.concat "\n" suggestions)
  else
  match (name, strip raw_arg) with
  | "help", _ -> ok help_text
  | "quit", _ | "q", _ -> { output = ""; quit = true }
  | "tables", _ ->
      ok (String.concat "\n" (Pb_sql.Database.table_names st.db))
  | "schema", table -> (
      match Pb_sql.Database.find st.db table with
      | None -> ok ("no such table: " ^ table)
      | Some rel ->
          ok
            (String.concat "\n"
               (List.map
                  (fun { Pb_relation.Schema.name; ty } ->
                    Printf.sprintf "%-16s %s" name
                      (Pb_relation.Value.ty_to_string ty))
                  (Pb_relation.Schema.columns (Pb_relation.Relation.schema rel)))))
  | "packages", _ -> (
      match Store.list_saved st.db with
      | [] -> ok "(no saved packages)"
      | entries ->
          ok
            (String.concat "\n"
               (List.map
                  (fun e ->
                    Printf.sprintf "%-16s %d tuple(s) from %-12s %s"
                      e.Store.name e.Store.cardinality e.Store.source_relation
                      e.Store.query_text)
                  entries)))
  | "save", name -> (
      match (st.last_query, st.last_package) with
      | Some query, Some pkg -> (
          match Store.save st.db ~name ~query pkg with
          | () -> ok (Printf.sprintf "saved as %s (table pkg_%s)" name name)
          | exception Failure msg -> ok msg)
      | _ -> ok "nothing to save: run a PaQL query that finds a package first")
  | "revalidate", name -> (
      match Store.revalidate st.db ~name with
      | Ok true -> ok "still valid"
      | Ok false -> ok "NO LONGER valid against the current data"
      | Error msg -> ok msg)
  | "drop", name ->
      if Store.delete st.db ~name then ok ("dropped " ^ name)
      else ok ("no saved package named " ^ name)
  | "explain", text when split_analyze text <> None -> (
      match split_analyze text with
      | Some query_text -> explain_analyze ?gov st query_text
      | None -> assert false)
  | "explain", text -> (
      match Pb_paql.Parser.parse text with
      | exception Pb_paql.Parser.Parse_error msg -> ok ("paql error: " ^ msg)
      | query -> (
          match Pb_core.Coeffs.make st.db query with
          | exception Failure msg -> ok ("error: " ^ msg)
          | c ->
              let b = Pb_core.Pruning.cardinality_bounds c in
              ok
                (Printf.sprintf
                   "candidates: %d\ncardinality bounds: %s\nsearch space: \
                    2^%.1f -> 2^%.1f\n%s"
                   c.Pb_core.Coeffs.n
                   (Pb_core.Pruning.bounds_to_string b)
                   (Pb_core.Pruning.log2_unpruned c)
                   (Pb_core.Pruning.log2_pruned c b)
                   (String.trim (Pb_core.Cost_model.to_table c)))))
  | "strategy", "" ->
      ok
        (Printf.sprintf "strategy: %s\navailable: %s"
           (Pb_core.Engine.strategy_name st.strategy)
           strategy_names)
  | "strategy", name -> (
      match List.assoc_opt (String.lowercase_ascii name) strategies with
      | Some s ->
          st.strategy <- s;
          ok ("strategy set to " ^ Pb_core.Engine.strategy_name s)
      | None ->
          ok
            (Printf.sprintf "unknown strategy: %s\navailable: %s" name
               strategy_names))
  | "next", rest -> (
      match String.index_opt rest ' ' with
      | None -> ok "usage: \\next K QUERY"
      | Some i -> (
          let k = String.sub rest 0 i in
          let text = String.sub rest (i + 1) (String.length rest - i - 1) in
          match (int_of_string_opt k, Pb_paql.Parser.parse text) with
          | None, _ -> ok "usage: \\next K QUERY"
          | Some k, query ->
              let packages =
                Pb_core.Engine.next_packages ?gov ~limit:k st.db query
              in
              if packages = [] then ok "no valid package"
              else
                ok
                  (String.concat "\n"
                     (List.mapi
                        (fun i pkg ->
                          Printf.sprintf "#%d objective=%s tuples=%s" (i + 1)
                            (match
                               Pb_paql.Semantics.objective_value ~db:st.db query
                                 pkg
                             with
                            | Some v -> Printf.sprintf "%g" v
                            | None -> "-")
                            (String.concat ","
                               (List.map string_of_int
                                  (Pb_paql.Package.support pkg))))
                        packages))
          | exception Pb_paql.Parser.Parse_error msg -> ok ("paql error: " ^ msg)))
  | "plan", sql -> (
      match Pb_sql.Parser.parse_select sql with
      | exception Pb_sql.Parser.Parse_error msg -> ok ("sql error: " ^ msg)
      | q -> (
          match
            Pb_sql.Planner.execute st.db
              ~compile:(Pb_sql.Executor.compile st.db)
              ~from:q.Pb_sql.Ast.from ~where:q.Pb_sql.Ast.where
          with
          | exception Failure msg -> ok ("plan error: " ^ msg)
          | rel, stats ->
              ok
                (Printf.sprintf
                   "source rows after plan: %d\nindex scans: %d\nhash joins: \
                    %d\nnested products: %d\npushed predicates: %d"
                   (Pb_relation.Relation.cardinality rel)
                   stats.Pb_sql.Planner.index_scans
                   stats.Pb_sql.Planner.hash_joins
                   stats.Pb_sql.Planner.nested_products
                   stats.Pb_sql.Planner.pushed_predicates)))
  | "metrics", _ -> ok (String.trim (Metrics.dump ()))
  | "traces", "" -> (
      match Trace_store.ids Trace_store.default with
      | [] -> ok "(no retained traces)"
      | ids ->
          ok
            (String.concat "\n"
               (List.filter_map
                  (fun id ->
                    Option.map
                      (fun e ->
                        Printf.sprintf "%s  %-9s %8.3fs  %d span(s)"
                          e.Trace_store.trace_id e.Trace_store.status
                          e.Trace_store.elapsed
                          (List.length e.Trace_store.spans))
                      (Trace_store.find Trace_store.default id))
                  ids)))
  | "traces", id -> (
      match Trace_store.find Trace_store.default id with
      | Some entry -> ok (String.trim (Trace_store.render entry))
      | None -> ok ("no retained trace with id " ^ id))
  (* Undocumented crash lever for the error-path regression tests: the
     server must answer [internal] and its admission gauges must return
     to zero after the handler raises. *)
  | "panic", msg -> failwith (if msg = "" then "panic" else msg)
  | "slowlog", "" ->
      let header =
        match Slow_log.threshold () with
        | None -> "slow-query log is off (\\slowlog SECONDS to enable)"
        | Some t -> Printf.sprintf "slow-query log threshold: %gs" t
      in
      ok (header ^ "\n" ^ Slow_log.render ())
  | "slowlog", "off" ->
      Slow_log.set_threshold None;
      ok "slow-query log disabled"
  | "slowlog", "clear" ->
      Slow_log.clear ();
      ok "slow-query log cleared"
  | "slowlog", arg -> (
      match float_of_string_opt arg with
      | Some t when t >= 0.0 ->
          Slow_log.set_threshold (Some t);
          ok (Printf.sprintf "logging queries slower than %gs" t)
      | Some _ | None -> ok "usage: \\slowlog [SECONDS|off|clear]")
  | "dump", dir -> (
      match Pb_sql.Persist.save_dir st.db dir with
      | () -> ok ("database written to " ^ dir)
      | exception Sys_error msg -> ok ("dump failed: " ^ msg)
      | exception Failure msg -> ok ("dump failed: " ^ msg))
  | name, _ -> ok (Printf.sprintf "unknown command \\%s (try \\help)" name)

let left_trim s =
  let n = String.length s in
  let rec go i = if i < n && (s.[i] = ' ' || s.[i] = '\t') then go (i + 1) else i in
  let i = go 0 in
  String.sub s i (n - i)

let handle ?gov st line =
  let trimmed = strip line in
  if trimmed = "" then ok ""
  else if trimmed.[0] = '\\' then begin
    (* Keep trailing whitespace: \complete is sensitive to it. *)
    let body =
      let lt = left_trim line in
      String.sub lt 1 (String.length lt - 1)
    in
    match String.index_opt body ' ' with
    | Some i ->
        command ?gov st
          (String.sub body 0 i)
          (String.sub body (i + 1) (String.length body - i - 1))
    | None -> command ?gov st body ""
  end
  else
    let line = trimmed in
    let line =
      (* allow a trailing semicolon on interactive input *)
      let n = String.length line in
      if n > 0 && line.[n - 1] = ';' then String.sub line 0 (n - 1) else line
    in
    if is_paql line then run_paql ?gov st line else run_sql ?gov st line
