open Ast
module Value = Pb_relation.Value
module Schema = Pb_relation.Schema
module Relation = Pb_relation.Relation
module Trace = Pb_obs.Trace
module Metrics = Pb_obs.Metrics
module Pool = Pb_par.Pool
module Gov = Pb_util.Gov

(* Sampled governance poll for executor loops (projection, group-by,
   distinct); a stop raises {!Gov.Interrupted}. *)
let poll gov i =
  if i land 255 = 0 then Gov.tick_opt ~resource:Gov.Sql_rows gov

let m_selects =
  Metrics.counter ~help:"SELECT blocks evaluated (subqueries included)"
    "pb_sql_selects_total"

let m_rows_returned =
  Metrics.counter ~help:"Rows returned by SELECT blocks"
    "pb_sql_rows_returned_total"

exception Eval_error = Compile.Eval_error

type result = Rows of Relation.t | Affected of int | Created

let err fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

(* The first of the elements whose rows are equal by value ({!Value.Key}:
   Int 3 and Float 3. are one row, Int 1 and Str "1" two), in order. *)
let dedup ?gov row_of xs =
  let seen = Value.Key_tbl.create 64 in
  List.filteri
    (fun i x ->
      poll gov i;
      let key = Array.to_list (row_of x) in
      (not (Value.Key_tbl.mem seen key)) && (Value.Key_tbl.add seen key (); true))
    xs

let set_operation op left right =
  if Schema.arity (Relation.schema left) <> Schema.arity (Relation.schema right)
  then err "set operation over results of different arity";
  let in_right () =
    let tbl = Value.Key_tbl.create 64 in
    Array.iter
      (fun row -> Value.Key_tbl.replace tbl (Array.to_list row) ())
      (Relation.rows right);
    fun row -> Value.Key_tbl.mem tbl (Array.to_list row)
  in
  let rows = Relation.to_list left in
  Relation.create (Relation.schema left)
    (match op with
    | Union_all -> rows @ Relation.to_list right
    | Union -> dedup Fun.id (rows @ Relation.to_list right)
    | Intersect ->
        let mem = in_right () in
        dedup Fun.id (List.filter mem rows)
    | Except ->
        let mem = in_right () in
        dedup Fun.id (List.filter (fun row -> not (mem row)) rows))

(* Mutually recursive with the compiled closures because of IN/EXISTS
   subqueries: a closure's [select] callback re-enters [select]. *)
let rec select ?memo ?gov db q =
  let base = select_simple ?memo ?gov db q in
  (* Set operations, applied left to right over the first branch. *)
  List.fold_left
    (fun acc (op, rhs) -> set_operation op acc (select_simple ?memo ?gov db rhs))
    base q.compound

(* Subqueries of closures compiled for this statement run under its
   governance token. *)
and subqueries ?gov db : Compile.select = fun q -> select ?gov db q

(* Compile one row-local expression, through the prepared-plan memo when the
   statement came from the cache. *)
and compile_row ?gov ?memo db schema e =
  match memo with
  | Some m ->
      (* Memoized closures are cached across requests by the plan cache,
         so their subquery callback must NOT close over this request's
         governance token — a stale token baked into a cached plan could
         cancel a later, healthy request.  Subqueries reached through a
         memoized plan therefore run un-governed (the enclosing operator
         loops still poll). *)
      Compile.Memo.expr m ~select:(subqueries db) schema e
  | None -> Compile.expr ~select:(subqueries ?gov db) schema e

and select_simple ?memo ?gov db q =
  Trace.with_span ~name:"sql.select" (fun () ->
  Metrics.incr m_selects;
  match Columnar.try_select ?gov db q with
  | Some rel ->
      (* The columnar engine answered the whole block; result-side
         accounting matches the row path below. *)
      let rows_out = Relation.cardinality rel in
      (match gov with Some g -> Gov.spend g Gov.Sql_rows rows_out | None -> ());
      Metrics.incr ~by:rows_out m_rows_returned;
      Trace.add_count "rows_out" rows_out;
      rel
  | None ->
  let filtered, _plan_stats =
    try
      Planner.execute ?gov db ~compile:(compile_row ?gov ?memo db)
        ~from:q.from ~where:q.where
    with Failure msg -> err "%s" msg
  in
  let schema = Relation.schema filtered in
  let items = Shape.expand_items schema q.items in
  let grouped_mode = Shape.grouped q items in
  let out_schema = Shape.output_schema schema items in
  (* Each output row keeps its provenance (source row or group) so that
     ORDER BY can reference source expressions that were not projected. *)
  let pairs =
    if not grouped_mode then begin
      (* Projection items are compiled once; the closures are pure reads of
         the row array, so they are shared across pool worker domains. *)
      let item_fns =
        List.map
          (function
            | Expr_item (e, _) -> compile_row ?gov ?memo db schema e
            | Star_item -> assert false)
          items
      in
      let project row =
        (Array.of_list (List.map (fun f -> f row) item_fns), `Row row)
      in
      (* Projection over large inputs is chunked across the domain pool;
         chunk outputs concatenate in order, so the row order (and any
         evaluation error raised) is identical to the sequential map. *)
      let rows = Relation.rows filtered in
      let n = Array.length rows in
      let pool = Pool.get_default () in
      if Pool.size pool > 1 && n >= 512 then
        List.concat
          (Pool.map_chunks pool ~n (fun ~lo ~hi ->
               List.init (hi - lo) (fun k ->
                   poll gov k;
                   project rows.(lo + k))))
      else
        List.mapi
          (fun i row ->
            poll gov i;
            project row)
          (Relation.to_list filtered)
    end
    else begin
      Trace.with_span ~name:"sql.group" (fun () ->
      (* Group rows by the value of the GROUP BY key ({!Value.Key}; a
         single group when absent), in order of first appearance. *)
      let key_fns = List.map (compile_row ?gov ?memo db schema) q.group_by in
      let tbl = Value.Key_tbl.create 64 in
      let order = ref [] in
      let seen_rows = ref 0 in
      List.iter
        (fun row ->
          poll gov !seen_rows;
          incr seen_rows;
          let key = List.map (fun f -> f row) key_fns in
          (match Value.Key_tbl.find_opt tbl key with
          | Some cell -> cell := row :: !cell
          | None ->
              let cell = ref [ row ] in
              Value.Key_tbl.add tbl key cell;
              order := cell :: !order))
        (Relation.to_list filtered);
      let group_of cell = Array.of_list (List.rev !cell) in
      let groups =
        match !order with
        (* An empty input with no GROUP BY still yields one (empty) group,
           so that a bare SELECT COUNT of everything returns 0. *)
        | [] when q.group_by = [] -> [ [||] ]
        | cells -> List.rev_map group_of cells
      in
      (* HAVING and the items are compiled once for the statement and
         applied per group. *)
      let having = Option.map (compile_group ?gov db schema) q.having in
      let item_fns =
        List.map
          (function
            | Expr_item (e, _) -> compile_group ?gov db schema e
            | Star_item -> assert false)
          items
      in
      List.filter_map
        (fun group ->
          Gov.tick_opt ~resource:Gov.Sql_rows gov;
          let keep =
            match having with
            | None -> true
            | Some pred -> Value.truthy (pred group)
          in
          if not keep then None
          else
            Some
              (Array.of_list (List.map (fun f -> f group) item_fns), `Group group))
        groups)
    end
  in
  let pairs = if q.distinct then dedup ?gov fst pairs else pairs in
  let pairs =
    match q.order_by with
    | [] -> pairs
    | keys ->
        (* ORDER BY may reference output columns (by alias), or any source
           expression — including ones that were not projected — which is
           resolved against the row's provenance. Source-side keys are
           compiled once, as row or group closures. *)
        let key_plans =
          List.map
            (fun (e, dir) ->
              let plan =
                match e with
                | Col name when Schema.index_of out_schema name <> None ->
                    `Out (Schema.index_of_exn out_schema name)
                | _ when grouped_mode -> `Grp (compile_group ?gov db schema e)
                | _ -> `Src (compile_row ?gov ?memo db schema e)
              in
              (plan, dir))
            keys
        in
        let key_value (out_row, provenance) plan =
          match (plan, provenance) with
          | `Out i, _ -> out_row.(i)
          | `Src f, `Row src -> f src
          | `Grp g, `Group group -> g group
          | (`Src _ | `Grp _), _ -> assert false
        in
        let cmp a b =
          let rec walk = function
            | [] -> 0
            | (plan, dir) :: rest ->
                let c = Value.compare_values (key_value a plan) (key_value b plan) in
                let c = match dir with Asc -> c | Desc -> -c in
                if c <> 0 then c else walk rest
          in
          walk key_plans
        in
        Trace.with_span ~name:"sql.sort" (fun () ->
            List.stable_sort cmp pairs)
  in
  let pairs =
    match q.offset with
    | None -> pairs
    | Some skip -> List.filteri (fun i _ -> i >= skip) pairs
  in
  let pairs =
    match q.limit with
    | None -> pairs
    | Some k -> List.filteri (fun i _ -> i < k) pairs
  in
  let rows_out = List.length pairs in
  (match gov with Some g -> Gov.spend g Gov.Sql_rows rows_out | None -> ());
  Metrics.incr ~by:rows_out m_rows_returned;
  Trace.add_count "rows_out" rows_out;
  Relation.create out_schema (List.map fst pairs))

(* Group closures are compiled per statement, never memoized, so their
   subqueries always run under the statement's own token. *)
and compile_group ?gov db schema e =
  Compile.group ~select:(subqueries ?gov db) schema e

let compile ?gov db schema e = compile_row ?gov db schema e

let eval_const ?db e =
  Compile.expr ?select:(Option.map subqueries db) (Schema.make []) e [||]

let execute ?memo ?gov db stmt =
  match stmt with
  | Select_stmt q -> Rows (select ?memo ?gov db q)
  | Create_table (name, defs) ->
      let schema =
        Schema.make
          (List.map (fun d -> { Schema.name = d.col_name; ty = d.col_ty }) defs)
      in
      Database.put db name (Relation.empty schema);
      Created
  | Insert (name, cols, rows) ->
      let rel = Database.find_exn db name in
      let schema = Relation.schema rel in
      let build row_exprs =
        let values = List.map (fun e -> eval_const ~db e) row_exprs in
        match cols with
        | None ->
            if List.length values <> Schema.arity schema then
              err "INSERT arity mismatch";
            Array.of_list values
        | Some names ->
            if List.length names <> List.length values then
              err "INSERT column/value count mismatch";
            let out = Array.make (Schema.arity schema) Value.Null in
            List.iter2
              (fun n v -> out.(Schema.index_of_exn schema n) <- v)
              names values;
            out
      in
      let new_rows = List.map build rows in
      Database.put db name (Relation.append rel new_rows);
      Affected (List.length new_rows)
  | Delete (name, where) -> (
      let rel = Database.find_exn db name in
      let schema = Relation.schema rel in
      let columnar =
        match where with
        | Some pred -> Columnar.delete_keep ?gov db ~name rel pred
        | None -> None
      in
      match columnar with
      | Some (kept, affected) ->
          Database.put db name kept;
          Affected affected
      | None ->
          let keep =
            match where with
            | None -> fun _row -> false
            | Some pred ->
                let f = compile_row ?gov db schema pred in
                fun row -> not (Value.truthy (f row))
          in
          let kept = Relation.filter keep rel in
          Database.put db name kept;
          Affected (Relation.cardinality rel - Relation.cardinality kept))
  | Update (name, sets, where) ->
      let rel = Database.find_exn db name in
      let schema = Relation.schema rel in
      let count = ref 0 in
      let mask =
        match where with
        | Some pred -> Columnar.update_mask ?gov db ~name rel pred
        | None -> None
      in
      let hit_fn =
        match (mask, where) with
        | Some _, _ | None, None -> fun _row -> true
        | None, Some pred ->
            let f = compile_row ?gov db schema pred in
            fun row -> Value.truthy (f row)
      in
      let set_fns =
        List.map (fun (col, e) -> (col, compile_row ?gov db schema e)) sets
      in
      (* [pos] tracks the row position so a columnar-computed WHERE mask
         can stand in for the per-row predicate. *)
      let pos = ref (-1) in
      let update row =
        incr pos;
        let hit =
          match mask with
          | Some m -> Bytes.get m !pos = '\001'
          | None -> hit_fn row
        in
        if not hit then row
        else begin
          incr count;
          let out = Array.copy row in
          List.iter
            (fun (col, f) -> out.(Schema.index_of_exn schema col) <- f row)
            set_fns;
          out
        end
      in
      Database.put db name (Relation.map_rows schema update rel);
      Affected !count
  | Create_index { table; column } ->
      (try Database.create_index db ~table ~column
       with Failure msg -> err "%s" msg);
      Created
  | Drop_table name ->
      Database.drop db name;
      Created

let execute_sql ?gov db src = execute ?gov db (Parser.parse_statement src)
