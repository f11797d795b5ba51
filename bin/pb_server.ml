(* pb_server — serve the PackageBuilder REPL surface (PaQL, SQL,
   backslash commands) over TCP. One shared database, one session per
   connection; SIGINT/SIGTERM drain in-flight requests and exit 0.

     pb_server --port 7878 --size 500
     pb_server --port 0                 # ephemeral; the bound port is printed
     pb_server --db ./state --deadline 5
     pb_server --table recipes=data/recipes.csv *)

open Cmdliner

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Bind address.")

let port_arg =
  Arg.(
    value & opt int 7878
    & info [ "port"; "p" ] ~docv:"PORT"
        ~doc:"TCP port; 0 picks an ephemeral port (printed on startup).")

let max_conns_arg =
  Arg.(
    value & opt int 64
    & info [ "max-conns" ] ~docv:"N"
        ~doc:
          "Maximum live connections; beyond this, clients are rejected \
           with a busy error instead of queueing.")

let max_inflight_arg =
  Arg.(
    value & opt int 64
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:
          "Maximum requests evaluating concurrently; further requests wait \
           in the admission queue.")

let max_queue_arg =
  Arg.(
    value & opt int 128
    & info [ "max-queue" ] ~docv:"N"
        ~doc:
          "Admission queue depth; a request arriving past it is answered \
           with a busy status immediately (backpressure).")

let deadline_arg =
  Arg.(
    value & opt float 0.0
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Default per-request deadline; past it the request's governance \
           token is cancelled and the client gets a deadline status with \
           the partial result. 0 disables the default (clients can still \
           set their own).")

let tables_arg =
  Arg.(
    value & opt_all string []
    & info [ "table" ] ~docv:"NAME=PATH"
        ~doc:"Load CSV file as a table. Repeatable.")

let size_arg =
  Arg.(
    value & opt int 500
    & info [ "size" ] ~docv:"N"
        ~doc:"Rows for the synthetic recipes table (travel/stocks scale along).")

let seed_arg =
  Arg.(
    value & opt int 7
    & info [ "seed" ] ~docv:"SEED" ~doc:"Seed for the synthetic workload.")

let db_dir_arg =
  Arg.(
    value & opt (some string) None
    & info [ "db" ] ~docv:"DIR"
        ~doc:
          "Persistent database directory: loaded on start when it exists, \
           written back (crash-safely) on shutdown.")

let slowlog_arg =
  Arg.(
    value & opt float 0.0
    & info [ "slowlog" ] ~docv:"SECONDS"
        ~doc:"Log requests slower than this to the slow-query log. 0 = off.")

let plan_cache_arg =
  Arg.(
    value & opt int 128
    & info [ "plan-cache" ] ~docv:"N"
        ~doc:
          "Prepared-plan cache capacity (entries), shared by all \
           connections. 0 disables caching: every request re-parses — \
           the benchmark baseline.")

let metrics_port_arg =
  Arg.(
    value & opt (some int) None
    & info [ "metrics-port" ] ~docv:"PORT"
        ~doc:
          "Serve GET /metrics (Prometheus text exposition), /healthz \
           (admission depths vs limits as JSON) and /traces/<id> (span \
           tree as JSON) over plain HTTP/1.1 on this port; 0 picks an \
           ephemeral one (printed on startup). Disabled when absent.")

let shard_arg =
  Arg.(
    value & opt (some string) None
    & info [ "shard" ] ~docv:"I/N"
        ~doc:
          "Run as shard $(i,I) of $(i,N) (0-based): after loading, every \
           table is filtered to the rows whose stable hash maps to this \
           shard, so $(i,N) servers started with the same data and \
           $(b,--shard) 0/N .. (N-1)/N hold a disjoint partition of it. \
           Front them with $(b,pb_router).")

let trace_capacity_arg =
  Arg.(
    value & opt int 256
    & info [ "trace-capacity" ] ~docv:"N"
        ~doc:
          "Completed request traces retained for \\\\traces and \
           /traces/<id>, evicted FIFO. 0 disables request tracing \
           entirely (the zero-overhead baseline).")

let load_db tables size seed db_dir =
  match db_dir with
  | Some dir when Sys.file_exists (Filename.concat dir "manifest.txt") ->
      Pb_sql.Persist.load_dir dir
  | _ ->
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
                let path =
                  String.sub spec (i + 1) (String.length spec - i - 1)
                in
                Pb_sql.Database.load_csv db ~name path
            | None ->
                failwith (Printf.sprintf "--table expects NAME=PATH, got %S" spec))
          tables;
      db

let parse_shard_spec spec =
  match String.index_opt spec '/' with
  | Some i -> (
      let shard = String.sub spec 0 i in
      let shards = String.sub spec (i + 1) (String.length spec - i - 1) in
      match (int_of_string_opt shard, int_of_string_opt shards) with
      | Some shard, Some shards when shards >= 1 && shard >= 0 && shard < shards
        ->
          (shard, shards)
      | _ -> failwith (Printf.sprintf "--shard expects I/N with 0 <= I < N, got %S" spec))
  | None -> failwith (Printf.sprintf "--shard expects I/N, got %S" spec)

let apply_shard db (shard, shards) =
  List.iter
    (fun name ->
      let rel = Pb_sql.Database.find_exn db name in
      Pb_sql.Database.put db name
        (Pb_shard.Hash.filter_shard ~shards ~shard rel))
    (Pb_sql.Database.table_names db)

let serve host port max_conns max_inflight max_queue deadline tables size
    seed db_dir slowlog plan_cache metrics_port shard_spec
    trace_capacity =
  let db = load_db tables size seed db_dir in
  let shard = Option.map parse_shard_spec shard_spec in
  Option.iter (apply_shard db) shard;
  if slowlog > 0.0 then Pb_obs.Slow_log.set_threshold (Some slowlog);
  let config =
    {
      Pb_net.Server.host;
      port;
      max_connections = max_conns;
      max_inflight;
      max_queue;
      default_deadline = (if deadline > 0.0 then Some deadline else None);
      plan_cache_capacity = max 0 plan_cache;
      trace_capacity = max 0 trace_capacity;
    }
  in
  let server = Pb_net.Server.start ~config db in
  Pb_net.Server.install_signal_handlers server;
  Printf.printf "pb_server listening on %s:%d (pid %d, %d tables, max %d conns%s)\n"
    host
    (Pb_net.Server.port server)
    (Unix.getpid ())
    (List.length (Pb_sql.Database.table_names db))
    max_conns
    (if deadline > 0.0 then Printf.sprintf ", deadline %gs" deadline else "");
  (match shard with
  | Some (i, n) -> Printf.printf "pb_server shard %d/%d\n" i n
  | None -> ());
  let http =
    match metrics_port with
    | Some p ->
        let h =
          Pb_obs.Http.start ~host ~port:p (Pb_net.Server.http_handler server)
        in
        Printf.printf "pb_server metrics on http://%s:%d\n" host
          (Pb_obs.Http.port h);
        Some h
    | None -> None
  in
  print_string "pb_server ready\n";
  flush stdout;
  Pb_net.Server.join server;
  Option.iter Pb_obs.Http.stop http;
  (match db_dir with
  | Some dir ->
      Pb_sql.Persist.save_dir db dir;
      Printf.printf "database saved to %s\n" dir
  | None -> ());
  print_endline "pb_server stopped";
  flush stdout

let cmd =
  let term =
    Term.(
      const serve $ host_arg $ port_arg $ max_conns_arg $ max_inflight_arg
      $ max_queue_arg $ deadline_arg $ tables_arg $ size_arg $ seed_arg
      $ db_dir_arg $ slowlog_arg $ plan_cache_arg $ metrics_port_arg
      $ shard_arg $ trace_capacity_arg)
  in
  Cmd.v
    (Cmd.info "pb_server" ~version:"1.0.0"
       ~doc:"PackageBuilder wire-protocol server (PaQL/SQL over TCP)")
    term

let () = exit (Cmd.eval cmd)
