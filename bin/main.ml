(* packagebuilder — command-line front end.

   Subcommands:
     run       evaluate a PaQL query and print the best package
     next      print the k best packages in order
     explain   show the evaluation plan: candidates, linearization,
               pruning bounds, search-space size, neighbourhood SQL
     template  render the package-template view (§3.1), optionally with
               the visual summary (§3.2)
     explore   run a scripted adaptive-exploration session (§3.3)
     sql       run plain SQL against the loaded data
     generate  write the synthetic workload tables to CSV files

   Data comes from the built-in synthetic workload (default) or CSV files
   passed as --table name=path. *)

open Cmdliner

let setup_logs level =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level

(* ---- shared options -------------------------------------------------- *)

let tables_arg =
  let doc = "Load CSV file as a table, e.g. --table recipes=data/recipes.csv. Repeatable." in
  Arg.(value & opt_all string [] & info [ "table" ] ~docv:"NAME=PATH" ~doc)

let size_arg =
  let doc = "Rows for the synthetic recipes table (travel/stocks scale along)." in
  Arg.(value & opt int 500 & info [ "size" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Seed for the synthetic workload generators." in
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc)

let query_arg =
  let doc = "PaQL query text (quote it), or @FILE to read from a file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)

let strategy_arg =
  let strategies =
    [
      ("hybrid", `Hybrid);
      ("ilp", `Ilp);
      ("brute-force", `Bf);
      ("brute-force-nopruning", `Bf_noprune);
      ("local-search", `Ls);
    ]
  in
  let doc =
    Printf.sprintf "Evaluation strategy: %s."
      (String.concat ", " (List.map fst strategies))
  in
  Arg.(
    value
    & opt (enum strategies) `Hybrid
    & info [ "strategy"; "s" ] ~docv:"STRATEGY" ~doc)

let to_engine_strategy = function
  | `Hybrid -> Pb_core.Engine.Hybrid
  | `Ilp -> Pb_core.Engine.Ilp
  | `Bf -> Pb_core.Engine.Brute_force { use_pruning = true }
  | `Bf_noprune -> Pb_core.Engine.Brute_force { use_pruning = false }
  | `Ls -> Pb_core.Engine.Local_search Pb_core.Local_search.default_params

let load_db tables size seed =
  let db = Pb_sql.Database.create () in
  if tables = [] then
    Pb_workload.Workload.install ~seed ~recipes_n:size
      ~destinations:(max 2 (size / 60))
      ~stocks_n:(max 20 (size / 2))
      db
  else
    List.iter
      (fun spec ->
        match String.index_opt spec '=' with
        | Some i ->
            let name = String.sub spec 0 i in
            let path = String.sub spec (i + 1) (String.length spec - i - 1) in
            Pb_sql.Database.load_csv db ~name path
        | None ->
            failwith
              (Printf.sprintf "--table expects NAME=PATH, got %S" spec))
      tables;
  db

let read_query text =
  let src =
    if String.length text > 1 && text.[0] = '@' then (
      let path = String.sub text 1 (String.length text - 1) in
      let ic = open_in path in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      s)
    else text
  in
  Pb_paql.Parser.parse src

let print_result (r : Pb_core.Engine.result) =
  print_endline (Pb_shell.Repl.render_paql_result r);
  List.iter (fun (k, v) -> Printf.printf "  %s = %s\n" k v) r.stats

(* ---- run -------------------------------------------------------------- *)

let run_cmd =
  let action tables size seed strategy query_text =
    let db = load_db tables size seed in
    let query = read_query query_text in
    print_endline (Pb_explore.Describe.describe_query query);
    let result =
      Pb_core.Engine.run ~strategy:(to_engine_strategy strategy) db query
    in
    print_result result
  in
  let term =
    Term.(const action $ tables_arg $ size_arg $ seed_arg $ strategy_arg $ query_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Evaluate a PaQL query and print the best package") term

(* ---- next ------------------------------------------------------------- *)

let next_cmd =
  let k_arg =
    Arg.(value & opt int 5 & info [ "k" ] ~docv:"K" ~doc:"How many packages.")
  in
  let action tables size seed k query_text =
    let db = load_db tables size seed in
    let query = read_query query_text in
    let packages = Pb_core.Engine.next_packages ~limit:k db query in
    if packages = [] then print_endline "no valid package"
    else
      List.iteri
        (fun i pkg ->
          Printf.printf "-- package %d%s --\n" (i + 1)
            (match Pb_paql.Semantics.objective_value ~db query pkg with
            | Some v -> Printf.sprintf " (objective %g)" v
            | None -> "");
          print_string (Pb_paql.Package.to_string pkg))
        packages
  in
  let term =
    Term.(const action $ tables_arg $ size_arg $ seed_arg $ k_arg $ query_arg)
  in
  Cmd.v
    (Cmd.info "next"
       ~doc:"Print the K best packages via solver re-evaluation with no-good cuts")
    term

(* ---- explain ---------------------------------------------------------- *)

let explain_cmd =
  let action tables size seed query_text =
    let db = load_db tables size seed in
    let query = read_query query_text in
    let c = Pb_core.Coeffs.make db query in
    Printf.printf "query: %s\n\n" (Pb_paql.Ast.to_string query);
    Printf.printf "candidate tuples (after base constraints): %d\n" c.Pb_core.Coeffs.n;
    Printf.printf "multiplicity cap: %d\n" c.Pb_core.Coeffs.max_mult;
    (match c.Pb_core.Coeffs.formula with
    | Ok _ -> print_endline "global constraints: linearizable (ILP-ready)"
    | Error reason -> Printf.printf "global constraints: opaque (%s) — search strategies only\n" reason);
    (match c.Pb_core.Coeffs.objective with
    | None -> print_endline "objective: none"
    | Some (Some _) -> print_endline "objective: linear"
    | Some None -> print_endline "objective: non-linear — search strategies only");
    let b = Pb_core.Pruning.cardinality_bounds c in
    Printf.printf "cardinality bounds (sec 4.1): %s\n"
      (Pb_core.Pruning.bounds_to_string b);
    Printf.printf "search space: 2^%.1f unpruned -> 2^%.1f pruned (10^%.1f x reduction)\n"
      (Pb_core.Pruning.log2_unpruned c)
      (Pb_core.Pruning.log2_pruned c b)
      (Pb_core.Pruning.reduction_factor_log10 c b);
    print_endline "\ncost model (sec 5 'optimizing PaQL queries'):";
    print_string (Pb_core.Cost_model.to_table c);
    (* neighbourhood SQL for the current best package, if any *)
    let result = Pb_core.Engine.run db query in
    (match result.Pb_core.Engine.package with
    | Some pkg when Pb_paql.Package.cardinality pkg >= 1 ->
        let _, sql = Pb_core.Local_search.sql_replacements db c pkg ~k:1 in
        Printf.printf "\nlocal-search neighbourhood query (k=1, sec 4.2):\n%s\n" sql
    | _ -> ());
    print_endline "";
    print_result result
  in
  let term = Term.(const action $ tables_arg $ size_arg $ seed_arg $ query_arg) in
  Cmd.v
    (Cmd.info "explain" ~doc:"Show the evaluation plan and §4 statistics for a query")
    term

(* ---- template --------------------------------------------------------- *)

let template_cmd =
  let summary_arg =
    Arg.(value & flag & info [ "summary" ] ~doc:"Include the visual summary (§3.2).")
  in
  let action tables size seed summary query_text =
    let db = load_db tables size seed in
    let query = read_query query_text in
    let t = Pb_explore.Template.create db query in
    print_string (Pb_explore.Template.render ~show_summary:summary db t)
  in
  let term =
    Term.(const action $ tables_arg $ size_arg $ seed_arg $ summary_arg $ query_arg)
  in
  Cmd.v (Cmd.info "template" ~doc:"Render the package template view (§3.1)") term

(* ---- explore ---------------------------------------------------------- *)

let explore_cmd =
  let rounds_arg =
    Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"N" ~doc:"Resampling rounds.")
  in
  let keep_arg =
    Arg.(
      value & opt int 1
      & info [ "keep" ] ~docv:"K" ~doc:"Tuples kept from each sample (the first K).")
  in
  let action tables size seed rounds keep query_text =
    let db = load_db tables size seed in
    let query = read_query query_text in
    match Pb_explore.Session.start db query with
    | Error e -> Printf.printf "cannot start session: %s\n" e
    | Ok session ->
        let rec loop session n =
          let pkg = Pb_explore.Session.current session in
          Printf.printf "-- sample %d --\n" n;
          print_string (Pb_paql.Package.to_string pkg);
          if n < rounds then begin
            let kept =
              List.filteri (fun i _ -> i < keep) (Pb_paql.Package.support pkg)
            in
            Printf.printf "keeping candidate tuple(s): %s\n"
              (String.concat ", " (List.map string_of_int kept));
            List.iter
              (fun s ->
                Printf.printf "inferred constraint suggestion: %s\n"
                  s.Pb_explore.Suggest.paql_fragment)
              (Pb_explore.Session.infer_constraints session ~keep:kept);
            let session, status =
              Pb_explore.Session.keep_and_resample session ~keep:kept
            in
            match status with
            | `Fresh -> loop session (n + 1)
            | `Exhausted -> print_endline "result space exhausted"
          end
        in
        loop session 1
  in
  let term =
    Term.(
      const action $ tables_arg $ size_arg $ seed_arg $ rounds_arg $ keep_arg
      $ query_arg)
  in
  Cmd.v
    (Cmd.info "explore" ~doc:"Scripted adaptive-exploration session (§3.3)")
    term

(* ---- sql -------------------------------------------------------------- *)

let sql_cmd =
  let action tables size seed sql_text =
    let db = load_db tables size seed in
    List.iter
      (fun stmt ->
        match Pb_sql.Executor.execute db stmt with
        | Pb_sql.Executor.Rows rel ->
            print_string (Pb_relation.Relation.to_table ~max_rows:50 rel)
        | Pb_sql.Executor.Affected n -> Printf.printf "%d row(s) affected\n" n
        | Pb_sql.Executor.Created -> print_endline "ok")
      (Pb_sql.Parser.parse_script sql_text)
  in
  let sql_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"SQL" ~doc:"SQL script (semicolon-separated).")
  in
  let term = Term.(const action $ tables_arg $ size_arg $ seed_arg $ sql_arg) in
  Cmd.v (Cmd.info "sql" ~doc:"Run SQL against the loaded tables") term

(* ---- complete ---------------------------------------------------------- *)

let complete_cmd =
  let action tables size seed prefix =
    let db = load_db tables size seed in
    match Pb_explore.Complete.suggest db prefix with
    | [] -> print_endline "(no suggestions)"
    | suggestions -> List.iter print_endline suggestions
  in
  let prefix_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"PREFIX" ~doc:"Partial PaQL text typed so far.")
  in
  let term =
    Term.(const action $ tables_arg $ size_arg $ seed_arg $ prefix_arg)
  in
  Cmd.v
    (Cmd.info "complete"
       ~doc:"Auto-suggest the next PaQL tokens (Figure 1's syntax help)")
    term

(* ---- shell -------------------------------------------------------------- *)

let shell_cmd =
  let db_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "db" ] ~docv:"DIR"
          ~doc:
            "Persistent database directory: loaded on start when it exists, \
             written back on \\quit. Saved packages survive across sessions.")
  in
  let action tables size seed db_dir =
    let db =
      match db_dir with
      | Some dir when Sys.file_exists (Filename.concat dir "manifest.txt") ->
          Pb_sql.Persist.load_dir dir
      | _ -> load_db tables size seed
    in
    let state = Pb_shell.Repl.create db in
    print_endline
      "packagebuilder shell — PaQL + SQL + \\commands (\\help, \\quit)";
    let rec loop () =
      print_string "pb> ";
      match read_line () with
      | exception End_of_file -> ()
      | line ->
          let reaction = Pb_shell.Repl.handle state line in
          if reaction.Pb_shell.Repl.output <> "" then
            print_endline reaction.Pb_shell.Repl.output;
          if reaction.Pb_shell.Repl.quit then ()
          else loop ()
    in
    loop ();
    match db_dir with
    | Some dir ->
        Pb_sql.Persist.save_dir (Pb_shell.Repl.database state) dir;
        Printf.printf "database saved to %s\n" dir
    | None -> ()
  in
  let term =
    Term.(const action $ tables_arg $ size_arg $ seed_arg $ db_dir_arg)
  in
  Cmd.v
    (Cmd.info "shell" ~doc:"Interactive PaQL/SQL shell with saved packages")
    term

(* ---- generate --------------------------------------------------------- *)

let generate_cmd =
  let out_arg =
    Arg.(value & opt string "." & info [ "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let action size seed out =
    let db = load_db [] size seed in
    List.iter
      (fun name ->
        let rel = Pb_sql.Database.find_exn db name in
        let header = Pb_relation.Schema.names (Pb_relation.Relation.schema rel) in
        let rows =
          List.map
            (fun row ->
              Array.to_list (Array.map Pb_relation.Value.to_string row))
            (Pb_relation.Relation.to_list rel)
        in
        let path = Filename.concat out (name ^ ".csv") in
        Pb_util.Csv.write_file path (header :: rows);
        Printf.printf "wrote %s (%d rows)\n" path (List.length rows))
      (Pb_sql.Database.table_names db)
  in
  let term = Term.(const action $ size_arg $ seed_arg $ out_arg) in
  Cmd.v (Cmd.info "generate" ~doc:"Write the synthetic workload tables to CSV") term

let main_cmd =
  let doc = "PackageBuilder: package queries over relational data (PaQL)" in
  let info = Cmd.info "packagebuilder" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  Cmd.group ~default info
    [ run_cmd; next_cmd; explain_cmd; template_cmd; explore_cmd; sql_cmd;
      complete_cmd; shell_cmd; generate_cmd ]

let () =
  setup_logs (Some Logs.Warning);
  exit (Cmd.eval main_cmd)
