module Ast = Pb_sql.Ast
module Database = Pb_sql.Database
module Executor = Pb_sql.Executor
module Parser = Pb_sql.Parser
module Relation = Pb_relation.Relation
module Schema = Pb_relation.Schema
module Gov = Pb_util.Gov
module Trace = Pb_obs.Trace
module Metrics = Pb_obs.Metrics
module Client = Pb_net.Client
module Protocol = Pb_net.Protocol
module Wire_data = Pb_net.Wire_data
module Repl = Pb_shell.Repl

exception Shard_error of string

(* ---- state ------------------------------------------------------------ *)

type shard_slot = {
  s_host : string;
  s_port : int;
  s_mu : Mutex.t;
  mutable s_conn : Client.t option;
  s_hist : Metrics.histogram;
}

type t = {
  shards : shard_slot array;
  connect_timeout : float option;
  local : Database.t;  (* router-created tables live only here *)
  mutable sharded : string list;  (* lowercase shard-resident table names *)
  mu : Mutex.t;
}

let fanout_buckets = [ 0.0005; 0.001; 0.005; 0.01; 0.05; 0.1; 0.5; 1.0; 5.0 ]

let m_shard_requests =
  Metrics.counter ~help:"requests fanned out to shards"
    "pb_router_shard_requests_total"

let m_merged =
  Metrics.counter ~help:"SELECTs answered by partial-aggregate merge"
    "pb_router_merged_selects_total"

let m_scanpull =
  Metrics.counter ~help:"statements answered by pulling shard rows"
    "pb_router_scanpull_total"

let m_shard_errors =
  Metrics.counter ~help:"shard transport or status failures"
    "pb_router_shard_errors_total"

let is_sharded t name =
  let name = String.lowercase_ascii name in
  Mutex.lock t.mu;
  let r = List.mem name t.sharded in
  Mutex.unlock t.mu;
  r

let shard_count t = Array.length t.shards

(* ---- one request to one shard ----------------------------------------- *)

(* One pooled connection per shard, serialized by a per-shard mutex:
   sessions share it, so the router's fd count stays O(shards) no matter
   how many clients it serves. A transport error drops the connection;
   the next request reconnects. *)
let shard_request t ~gov ?(data = false) i text =
  let slot = t.shards.(i) in
  (match Gov.remaining_time gov with
  | Some d when d <= 0.0 -> raise (Gov.Interrupted Gov.Deadline)
  | _ -> ());
  Mutex.lock slot.s_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock slot.s_mu)
    (fun () ->
      let conn =
        match slot.s_conn with
        | Some c -> c
        | None -> (
            match
              Client.connect ~host:slot.s_host
                ?connect_timeout:t.connect_timeout ~port:slot.s_port ()
            with
            | c ->
                slot.s_conn <- Some c;
                c
            | exception e ->
                Metrics.incr m_shard_errors;
                raise
                  (Shard_error
                     (Printf.sprintf "shard %d (%s:%d) unreachable: %s" i
                        slot.s_host slot.s_port (Printexc.to_string e))))
      in
      Metrics.incr m_shard_requests;
      let deadline = Gov.remaining_time gov in
      let trace = Trace.current_trace_id () in
      let t0 = Unix.gettimeofday () in
      let resp =
        match Client.request ?deadline ?trace ~data conn text with
        | resp -> resp
        | exception e ->
            (* the stream may be desynchronized; reconnect next time *)
            slot.s_conn <- None;
            (try Client.close conn with _ -> ());
            Metrics.incr m_shard_errors;
            raise
              (Shard_error
                 (Printf.sprintf "shard %d request failed: %s" i
                    (Printexc.to_string e)))
      in
      Metrics.observe slot.s_hist (Unix.gettimeofday () -. t0);
      match resp.Protocol.status with
      | Protocol.Ok -> resp.Protocol.body
      | Protocol.Deadline_exceeded -> raise (Gov.Interrupted Gov.Deadline)
      | Protocol.Cancelled -> raise (Gov.Interrupted Gov.Cancelled)
      | status ->
          Metrics.incr m_shard_errors;
          raise
            (Shard_error
               (Printf.sprintf "shard %d answered %s: %s" i
                  (Protocol.status_to_string status) resp.Protocol.body)))

(* Data-mode statement on one shard. SQL-level failures on the shard
   come back as [err] bodies and re-raise here as [Eval_error], so the
   router renders them exactly like a local "sql error: ...". *)
let shard_exec t ~gov i sql =
  let body = shard_request t ~gov ~data:true i sql in
  match Wire_data.decode_error body with
  | Some (_kind, msg) -> raise (Executor.Eval_error msg)
  | None -> (
      match Wire_data.decode_result body with
      | Ok r -> r
      | Error msg ->
          Metrics.incr m_shard_errors;
          raise
            (Shard_error
               (Printf.sprintf "shard %d: bad data-mode body: %s" i msg)))

let shard_exec_rows t ~gov i sql =
  match shard_exec t ~gov i sql with
  | Executor.Rows rel -> rel
  | Executor.Affected _ | Executor.Created ->
      raise (Shard_error (Printf.sprintf "shard %d: expected rows for %s" i sql))

(* Pull a sharded table whole: SELECT * from every shard, concatenated
   in shard order (deterministic). *)
let pull_table t ~gov name =
  Metrics.incr m_scanpull;
  let sql = "SELECT * FROM " ^ name in
  let rels =
    List.init (shard_count t) (fun i -> shard_exec_rows t ~gov i sql)
  in
  match rels with
  | [] -> failwith "router has no shards"
  | first :: _ ->
      Relation.create (Relation.schema first)
        (List.concat_map Relation.to_list rels)

(* ---- referenced tables ------------------------------------------------ *)

let rec tables_of_select acc (q : Ast.select) =
  let acc =
    List.fold_left (fun acc tr -> tr.Ast.rel_name :: acc) acc q.Ast.from
  in
  let exprs =
    List.filter_map
      (function Ast.Star_item -> None | Ast.Expr_item (e, _) -> Some e)
      q.Ast.items
    @ q.Ast.group_by
    @ Option.to_list q.Ast.where
    @ Option.to_list q.Ast.having
    @ List.map fst q.Ast.order_by
  in
  let acc = List.fold_left tables_of_expr acc exprs in
  List.fold_left (fun acc (_, rhs) -> tables_of_select acc rhs) acc q.Ast.compound

and tables_of_expr acc (e : Ast.expr) =
  match e with
  | Ast.Lit _ | Ast.Col _ -> acc
  | Ast.Unary_minus a | Ast.Not a | Ast.Is_null (a, _) | Ast.Like (a, _, _) ->
      tables_of_expr acc a
  | Ast.Binop (_, a, b) -> tables_of_expr (tables_of_expr acc a) b
  | Ast.Between (a, b, c) ->
      tables_of_expr (tables_of_expr (tables_of_expr acc a) b) c
  | Ast.In_list (a, es, _) ->
      List.fold_left tables_of_expr (tables_of_expr acc a) es
  | Ast.In_query (a, q, _) -> tables_of_select (tables_of_expr acc a) q
  | Ast.Exists q -> tables_of_select acc q
  | Ast.Agg (_, eo) -> Option.fold ~none:acc ~some:(tables_of_expr acc) eo
  | Ast.Func (_, es) -> List.fold_left tables_of_expr acc es
  | Ast.Case (arms, eo) ->
      let acc =
        List.fold_left
          (fun acc (c, v) -> tables_of_expr (tables_of_expr acc c) v)
          acc arms
      in
      Option.fold ~none:acc ~some:(tables_of_expr acc) eo

let dedup names =
  List.fold_left
    (fun acc n ->
      let l = String.lowercase_ascii n in
      if List.mem l acc then acc else l :: acc)
    [] names
  |> List.rev

(* ---- SQL over shards --------------------------------------------------- *)

(* Scratch database for the fallback path: pulled copies of every
   referenced sharded table plus references to the local tables (cheap:
   relations are immutable). *)
let scratch_with_tables t ~gov names =
  let db = Database.create () in
  List.iter
    (fun n ->
      if is_sharded t n then Database.put db n (pull_table t ~gov n)
      else
        match Database.find t.local n with
        | Some rel -> Database.put db n rel
        | None -> () (* the executor reports the missing table *))
    names;
  db

let run_select t ~gov q =
  let refs = dedup (tables_of_select [] q) in
  let sharded_refs = List.filter (is_sharded t) refs in
  if sharded_refs = [] then Executor.execute ~gov t.local (Ast.Select_stmt q)
  else
    let merge_plan =
      match sharded_refs with
      | [ table ] when List.length refs = 1 -> Merge.plan ~table q
      | _ -> None
    in
    match merge_plan with
    | Some plan ->
        Metrics.incr m_merged;
        let partial_sql = Ast.select_to_string plan.Merge.partial in
        let partials =
          List.init (shard_count t) (fun i ->
              shard_exec_rows t ~gov i partial_sql)
        in
        let scratch = Database.create () in
        (match partials with
        | [] -> failwith "router has no shards"
        | first :: _ ->
            Database.put scratch plan.Merge.scratch
              (Relation.create (Relation.schema first)
                 (List.concat_map Relation.to_list partials)));
        Executor.execute ~gov scratch (Ast.Select_stmt plan.Merge.final)
    | None ->
        let db = scratch_with_tables t ~gov refs in
        Executor.execute ~gov db (Ast.Select_stmt q)

(* Schema of a sharded table, from shard 0 without moving rows. *)
let sharded_schema t ~gov name =
  Relation.schema (shard_exec_rows t ~gov 0 ("SELECT * FROM " ^ name ^ " LIMIT 0"))

(* Multi-shard DML is NOT atomic: statements apply shard-by-shard with
   no two-phase commit, so a failure (or deadline) at shard k leaves
   the shards that already ran the statement applied while the client
   sees only an error. We cannot undo that without 2PC — out of scope —
   but we make it diagnosable: the error is annotated with exactly
   which shards applied the statement, so an operator can reconcile or
   re-run idempotently. See DESIGN.md, "Serving architecture". *)
let partial_dml_note applied =
  match List.rev applied with
  | [] -> ""
  | l ->
      Printf.sprintf
        " [multi-shard DML is not atomic: shard(s) %s already applied this \
         statement]"
        (String.concat "," (List.map string_of_int l))

let with_partial_dml_note applied f =
  try f () with
  | Shard_error msg -> raise (Shard_error (msg ^ partial_dml_note !applied))
  | Executor.Eval_error msg ->
      raise (Executor.Eval_error (msg ^ partial_dml_note !applied))
  | Gov.Interrupted r when !applied <> [] ->
      (* the fate stays latched on the token, so the response status is
         still deadline/cancelled; this only improves the body *)
      raise
        (Shard_error
           (Printf.sprintf "cancelled (%s)%s" (Gov.reason_to_string r)
              (partial_dml_note !applied)))

let broadcast_statement t ~gov stmt =
  let sql = Ast.statement_to_string stmt in
  let applied = ref [] in
  (* explicit ascending recursion: shard order is part of the error
     contract above, so don't rely on List.init's evaluation order *)
  let rec fan i acc =
    if i = shard_count t then List.rev acc
    else begin
      let r = shard_exec t ~gov i sql in
      applied := i :: !applied;
      fan (i + 1) (r :: acc)
    end
  in
  let results = with_partial_dml_note applied (fun () -> fan 0 []) in
  let affected =
    List.fold_left
      (fun acc r -> match r with Executor.Affected n -> acc + n | _ -> acc)
      0 results
  in
  match results with
  | Executor.Affected _ :: _ -> Executor.Affected affected
  | r :: _ -> r
  | [] -> failwith "router has no shards"

(* Route INSERT ... VALUES rows by the shard hash of the full stored
   row: evaluate each literal row against the table's schema (missing
   columns are NULL, matching single-node INSERT), hash, and send each
   shard one INSERT carrying exactly its rows. *)
let route_insert t ~gov name cols rows =
  let columns = Schema.columns (sharded_schema t ~gov name) in
  let full_row exprs =
    match cols with
    | None ->
        if List.length exprs <> List.length columns then
          raise
            (Executor.Eval_error
               (Printf.sprintf "INSERT arity mismatch for table %s" name));
        Array.of_list (List.map (fun e -> Executor.eval_const e) exprs)
    | Some cs ->
        if List.length cs <> List.length exprs then
          raise
            (Executor.Eval_error
               (Printf.sprintf "INSERT arity mismatch for table %s" name));
        let assoc =
          List.map2 (fun c e -> (String.lowercase_ascii c, e)) cs exprs
        in
        Array.of_list
          (List.map
             (fun { Schema.name = cname; _ } ->
               match List.assoc_opt (String.lowercase_ascii cname) assoc with
               | Some e -> Executor.eval_const e
               | None -> Pb_relation.Value.Null)
             columns)
  in
  let shards = shard_count t in
  let buckets = Array.make shards [] in
  List.iter
    (fun exprs ->
      let s = Hash.shard_of_row ~shards (full_row exprs) in
      buckets.(s) <- exprs :: buckets.(s))
    rows;
  let total = ref 0 in
  let applied = ref [] in
  with_partial_dml_note applied (fun () ->
      Array.iteri
        (fun i bucket ->
          match List.rev bucket with
          | [] -> ()
          | rows_i ->
              let sql =
                Ast.statement_to_string (Ast.Insert (name, cols, rows_i))
              in
              let r = shard_exec t ~gov i sql in
              applied := i :: !applied;
              (match r with
              | Executor.Affected n -> total := !total + n
              | _ -> ()))
        buckets);
  Executor.Affected !total

let run_statement t ~gov stmt =
  match stmt with
  | Ast.Select_stmt q -> run_select t ~gov q
  | Ast.Insert (name, cols, rows) when is_sharded t name ->
      route_insert t ~gov name cols rows
  | (Ast.Delete (name, _) | Ast.Update (name, _, _)) when is_sharded t name ->
      broadcast_statement t ~gov stmt
  | Ast.Create_index { table; _ } when is_sharded t table ->
      broadcast_statement t ~gov stmt
  | Ast.Drop_table name when is_sharded t name ->
      let r = broadcast_statement t ~gov stmt in
      Mutex.lock t.mu;
      t.sharded <-
        List.filter (fun n -> n <> String.lowercase_ascii name) t.sharded;
      Mutex.unlock t.mu;
      r
  | Ast.Create_table (name, _) when is_sharded t name ->
      raise (Executor.Eval_error ("table already exists on shards: " ^ name))
  | stmt -> Executor.execute ~gov t.local stmt

let render_result buf = function
  | Executor.Rows rel ->
      Buffer.add_string buf (Relation.to_table ~max_rows:40 rel)
  | Executor.Affected n ->
      Buffer.add_string buf (Printf.sprintf "%d row(s) affected\n" n)
  | Executor.Created -> Buffer.add_string buf "ok\n"

let ok output = { Repl.output; quit = false }

let run_script t ~gov text =
  match Parser.parse_script text with
  | exception Pb_sql.Parser.Parse_error msg -> ok ("sql error: " ^ msg)
  | statements -> (
      let buf = Buffer.create 256 in
      match
        List.iter (fun stmt -> render_result buf (run_statement t ~gov stmt))
          statements
      with
      | () -> ok (String.trim (Buffer.contents buf))
      | exception Executor.Eval_error msg -> ok ("sql error: " ^ msg)
      | exception Gov.Interrupted r -> ok ("cancelled: " ^ Gov.reason_to_string r)
      | exception Shard_error msg -> ok ("shard error: " ^ msg))

(* ---- PaQL over shards -------------------------------------------------- *)

(* Router-level evaluation: pull the input table and run SketchRefine
   over it. Its LP front settles the query over the whole pulled
   relation before any partitioning; the pipeline, when it runs, uses
   the same partitioner as a single node. *)
let run_paql t ~gov text =
  let render result = ok (Repl.render_paql_result result) in
  match Pb_paql.Parser.parse text with
  | exception Pb_paql.Parser.Parse_error msg -> ok ("paql error: " ^ msg)
  | query -> (
      let input = query.Pb_paql.Ast.input_relation in
      if not (is_sharded t input) then
        match Pb_core.Engine.run ~gov t.local query with
        | exception Failure msg -> ok ("error: " ^ msg)
        | result -> render result
      else
        match
          let scratch = Database.create () in
          Database.put scratch input (pull_table t ~gov input);
          Pb_core.Engine.run ~gov
            ~strategy:(Pb_core.Engine.Sketch_refine Pb_core.Sketch_refine.default_params)
            scratch query
        with
        | exception Failure msg -> ok ("error: " ^ msg)
        | exception Shard_error msg -> ok ("shard error: " ^ msg)
        | result -> render result)

(* ---- commands ---------------------------------------------------------- *)

let help_text =
  String.concat "\n"
    [
      "pb_router: PaQL and SQL are fanned out over the shard set.";
      "Commands:";
      "  \\help                 this list";
      "  \\tables               sharded tables (union) plus router-local ones";
      "  \\schema TABLE         show a table's columns";
      "  \\shards               list shard endpoints and health";
      "  \\quit                 leave";
    ]

let local_schema t table =
  match Database.find t.local table with
  | None -> ok ("no such table: " ^ table)
  | Some rel ->
      ok
        (String.concat "\n"
           (List.map
              (fun { Schema.name; ty } ->
                Printf.sprintf "%-16s %s" name
                  (Pb_relation.Value.ty_to_string ty))
              (Schema.columns (Relation.schema rel))))

(* Aggregated health: ask every shard its server-level \healthz over the
   query wire (a fresh short-lived connection, so a wedged pooled
   connection cannot make a healthy shard look dead). Degraded when any
   shard is unreachable or non-ok. *)
let health_json t =
  let timeout = Option.value t.connect_timeout ~default:2.0 in
  let entries =
    Array.to_list
      (Array.mapi
         (fun i slot ->
           match
             Client.with_connection ~host:slot.s_host ~connect_timeout:timeout
               ~port:slot.s_port (fun c -> Client.request c "\\healthz")
           with
           | { Protocol.status = Protocol.Ok; body } ->
               (true, Printf.sprintf "{\"shard\":%d,\"health\":%s}" i body)
           | { Protocol.status; body } ->
               ( false,
                 Printf.sprintf "{\"shard\":%d,\"status\":%S,\"error\":%S}" i
                   (Protocol.status_to_string status)
                   body )
           | exception _ ->
               ( false,
                 Printf.sprintf "{\"shard\":%d,\"status\":\"unreachable\"}" i ))
         t.shards)
  in
  let all_ok = List.for_all fst entries in
  Printf.sprintf "{\"status\":%S,\"shards\":[%s]}"
    (if all_ok then "ok" else "degraded")
    (String.concat "," (List.map snd entries))

let shards_text t =
  String.concat "\n"
    (Array.to_list
       (Array.mapi
          (fun i slot -> Printf.sprintf "shard %d  %s:%d" i slot.s_host slot.s_port)
          t.shards))

let list_tables t ~gov =
  (* live union; also refresh the sharded set so tables created on the
     shards after startup become routable *)
  let shard_names =
    String.split_on_char '\n' (shard_request t ~gov 0 "\\tables")
    |> List.filter (fun s -> String.trim s <> "")
    |> List.map String.lowercase_ascii
  in
  Mutex.lock t.mu;
  t.sharded <- shard_names;
  Mutex.unlock t.mu;
  let names =
    List.sort_uniq String.compare (shard_names @ Database.table_names t.local)
  in
  ok (String.concat "\n" names)

let command t ~gov name arg =
  match (name, String.trim arg) with
  | "help", _ -> ok help_text
  | ("quit" | "q"), _ -> { Repl.output = ""; quit = true }
  | "tables", _ -> list_tables t ~gov
  | "schema", table ->
      if is_sharded t table then
        ok (shard_request t ~gov 0 ("\\schema " ^ table))
      else local_schema t table
  | "shards", _ -> ok (shards_text t)
  | "healthz", _ -> ok (health_json t)
  | name, _ -> ok (Printf.sprintf "command not supported by pb_router: \\%s" name)

(* Same dispatch heuristic as the REPL. *)
let is_paql line =
  match Pb_sql.Lexer.tokenize line with
  | exception Pb_sql.Lexer.Lex_error _ -> false
  | tokens ->
      List.exists
        (function Pb_sql.Lexer.Keyword "PACKAGE" -> true | _ -> false)
        tokens

let handle t ~gov line =
  let trimmed = String.trim line in
  if trimmed = "" then ok ""
  else if trimmed.[0] = '\\' then begin
    let body = String.sub trimmed 1 (String.length trimmed - 1) in
    match String.index_opt body ' ' with
    | Some i ->
        command t ~gov (String.sub body 0 i)
          (String.sub body (i + 1) (String.length body - i - 1))
    | None -> command t ~gov body ""
  end
  else
    let line =
      let n = String.length trimmed in
      if n > 0 && trimmed.[n - 1] = ';' then String.sub trimmed 0 (n - 1)
      else trimmed
    in
    try
      if is_paql line then run_paql t ~gov line else run_script t ~gov line
    with Shard_error msg -> ok ("shard error: " ^ msg)

(* ---- construction ------------------------------------------------------ *)

let discover_sharded ~host ~port ~connect_timeout =
  (* bounded retry: in a fresh deployment the router often races the
     shards' listen sockets by a few hundred milliseconds *)
  let rec go attempt =
    match
      Client.with_connection ~host
        ?connect_timeout:(Some (Option.value connect_timeout ~default:2.0))
        ~port
        (fun c -> Client.request c "\\tables")
    with
    | { Protocol.status = Protocol.Ok; body } ->
        String.split_on_char '\n' body
        |> List.filter (fun s -> String.trim s <> "")
        |> List.map String.lowercase_ascii
    | { Protocol.body; _ } -> failwith ("shard 0 refused \\tables: " ^ body)
    | exception e ->
        if attempt >= 20 then
          failwith
            (Printf.sprintf "cannot reach shard 0 at %s:%d: %s" host port
               (Printexc.to_string e))
        else begin
          Thread.delay 0.25;
          go (attempt + 1)
        end
  in
  go 0

let create ?connect_timeout ~shards local =
  if Array.length shards = 0 then failwith "pb_router needs at least one shard";
  let host0, port0 = shards.(0) in
  let sharded = discover_sharded ~host:host0 ~port:port0 ~connect_timeout in
  let slots =
    Array.mapi
      (fun i (host, port) ->
        {
          s_host = host;
          s_port = port;
          s_mu = Mutex.create ();
          s_conn = None;
          s_hist =
            Metrics.histogram
              ~help:(Printf.sprintf "router fan-out latency to shard %d" i)
              ~buckets:fanout_buckets
              (Printf.sprintf "pb_shard_%d_fanout_seconds" i);
        })
      shards
  in
  { shards = slots; connect_timeout; local; sharded; mu = Mutex.create () }

let session_factory t (_ : Pb_net.Server.t) : Pb_net.Server.session_handler =
  fun ~gov line -> handle t ~gov line

let close t =
  Array.iter
    (fun slot ->
      Mutex.lock slot.s_mu;
      (match slot.s_conn with
      | Some c ->
          (try Client.close c with _ -> ());
          slot.s_conn <- None
      | None -> ());
      Mutex.unlock slot.s_mu)
    t.shards
