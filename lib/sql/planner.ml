open Ast
module Value = Pb_relation.Value
module Schema = Pb_relation.Schema
module Relation = Pb_relation.Relation

module Trace = Pb_obs.Trace
module Metrics = Pb_obs.Metrics
module Pool = Pb_par.Pool
module Gov = Pb_util.Gov

(* Below this many rows a parallel pass costs more in chunk bookkeeping
   than it saves; operators fall back to the plain sequential loop. *)
let par_threshold = 512

(* Governance poll for SQL operator loops, sampled every [poll_mask + 1]
   iterations so the atomic loads stay off the per-row fast path.  SQL
   has no useful partial answer, so a stop raises {!Gov.Interrupted}
   (possibly from a worker domain — [Pool.run_region] re-raises it on
   the submitter). *)
let poll_mask = 255

let poll gov i =
  if i land poll_mask = 0 then Gov.tick_opt ~resource:Gov.Sql_rows gov

(* Order-preserving filter: rows are predicate-tested in parallel chunks
   over the default pool and the surviving rows concatenated in chunk
   order, so the output is identical to [Relation.filter] at any pool
   size.  The predicate must be pure reads (it runs on worker domains). *)
let chunked_filter ?gov pred rel =
  let pool = Pool.get_default () in
  let rows = Relation.rows rel in
  let n = Array.length rows in
  if Pool.size pool <= 1 || n < par_threshold then begin
    let out = ref [] in
    for i = n - 1 downto 0 do
      poll gov i;
      if pred rows.(i) then out := rows.(i) :: !out
    done;
    Relation.create (Relation.schema rel) !out
  end
  else
    let parts =
      Pool.map_chunks pool ~n (fun ~lo ~hi ->
          let out = ref [] in
          for i = hi - 1 downto lo do
            poll gov i;
            if pred rows.(i) then out := rows.(i) :: !out
          done;
          !out)
    in
    Relation.create (Relation.schema rel) (List.concat parts)

let m_rows_scanned =
  Metrics.counter ~help:"Rows read by base-table scans (after index narrowing)"
    "pb_sql_rows_scanned_total"

let m_index_lookups =
  Metrics.counter ~help:"Scans satisfied through a declared index"
    "pb_sql_index_lookups_total"

let m_hash_joins =
  Metrics.counter ~help:"Hash joins executed" "pb_sql_hash_joins_total"

let m_hash_join_build_rows =
  Metrics.counter ~help:"Rows inserted into hash-join build tables"
    "pb_sql_hash_join_build_rows_total"

let m_hash_join_probe_rows =
  Metrics.counter ~help:"Rows probed against hash-join build tables"
    "pb_sql_hash_join_probe_rows_total"

let m_nested_products =
  Metrics.counter ~help:"Nested-loop products (no usable equi-join key)"
    "pb_sql_nested_products_total"

let m_product_rows =
  Metrics.counter
    ~help:"Rows materialized by nested-loop products (cancellation poll point)"
    "pb_sql_product_rows_total"

let m_pushed_predicates =
  Metrics.counter ~help:"Predicates applied below the top of the join tree"
    "pb_sql_pushed_predicates_total"

type compile_fn = Schema.t -> Ast.expr -> Value.t array -> Value.t

type stats = {
  pushed_predicates : int;
  index_scans : int;
  hash_joins : int;
  nested_products : int;
}

let no_stats =
  { pushed_predicates = 0; index_scans = 0; hash_joins = 0; nested_products = 0 }

let rec conjuncts = function
  | Binop (And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* All column references of an expression (subqueries excluded: their
   columns resolve against their own FROM). *)
let rec columns_of acc = function
  | Col c -> c :: acc
  | Lit _ | Exists _ -> acc
  | Unary_minus e | Not e | Is_null (e, _) | Like (e, _, _) | In_query (e, _, _)
    ->
      columns_of acc e
  | Binop (_, a, b) -> columns_of (columns_of acc a) b
  | Between (a, b, c) -> columns_of (columns_of (columns_of acc a) b) c
  | In_list (e, es, _) -> List.fold_left columns_of (columns_of acc e) es
  | Agg (_, Some e) -> columns_of acc e
  | Agg (_, None) -> acc
  | Func (_, es) -> List.fold_left columns_of acc es
  | Case (branches, default) ->
      let acc =
        List.fold_left
          (fun acc (c, e) -> columns_of (columns_of acc c) e)
          acc branches
      in
      (match default with Some e -> columns_of acc e | None -> acc)

let resolvable schema expr =
  List.for_all
    (fun col -> Schema.index_of schema col <> None)
    (columns_of [] expr)

let load db { rel_name; alias } =
  let rel =
    match Database.find db rel_name with
    | Some r -> r
    | None -> failwith ("no such table: " ^ rel_name)
  in
  let qualifier = Option.value alias ~default:rel_name in
  (rel_name, Relation.rename qualifier rel)

let naive db ~compile ~from ~where =
  match from with
  | [] -> failwith "empty FROM clause"
  | first :: rest ->
      let source =
        List.fold_left
          (fun acc r -> Relation.product acc (snd (load db r)))
          (snd (load db first))
          rest
      in
      (match where with
      | None -> source
      | Some pred ->
          let pred = compile (Relation.schema source) pred in
          Relation.filter (fun row -> Value.truthy (pred row)) source)

(* ---- single-table scan with optional index access ------------------- *)

let base_name col =
  match String.rindex_opt col '.' with
  | Some i -> String.sub col (i + 1) (String.length col - i - 1)
  | None -> col

(* Recognize a sargable conjunct over [schema]: (column, bounds). *)
let sargable schema expr =
  let bound_of cmp v =
    match cmp with
    | Eq -> Some (Some (v, true), Some (v, true))
    | Le -> Some (None, Some (v, true))
    | Lt -> Some (None, Some (v, false))
    | Ge -> Some (Some (v, true), None)
    | Gt -> Some (Some (v, false), None)
    | Neq | Add | Sub | Mul | Div | And | Or -> None
  in
  let mirror = function
    | Le -> Ge
    | Lt -> Gt
    | Ge -> Le
    | Gt -> Lt
    | cmp -> cmp
  in
  match expr with
  | Binop (cmp, Col c, Lit v) when Schema.index_of schema c <> None ->
      Option.map (fun b -> (c, b)) (bound_of cmp v)
  | Binop (cmp, Lit v, Col c) when Schema.index_of schema c <> None ->
      Option.map (fun b -> (c, b)) (bound_of (mirror cmp) v)
  | Between (Col c, Lit lo, Lit hi) when Schema.index_of schema c <> None ->
      Some (c, (Some (lo, true), Some (hi, true)))
  | _ -> None

let scan ?gov db ~compile ~stats table_name qualified_rel conjs =
  Trace.with_span ~name:"sql.scan" ~attrs:[ ("table", table_name) ] (fun () ->
  match Columnar.scan ?gov db ~name:table_name qualified_rel conjs with
  | Some out ->
      (* Same accounting as the row path below: every base row is read,
         and each conjunct counts as one pushed predicate. *)
      let npush = List.length conjs in
      stats :=
        { !stats with pushed_predicates = !stats.pushed_predicates + npush };
      Metrics.incr ~by:npush m_pushed_predicates;
      let scanned = Relation.cardinality qualified_rel in
      Metrics.incr ~by:scanned m_rows_scanned;
      Trace.add_count "rows_scanned" scanned;
      Trace.add_count "rows_out" (Relation.cardinality out);
      out
  | None ->
  let schema = Relation.schema qualified_rel in
  (* Try to satisfy one sargable conjunct with a declared index. *)
  let indexed_conjunct =
    List.find_opt
      (fun conj ->
        match sargable schema conj with
        | Some (col, _) ->
            Database.get_index db ~table:table_name ~column:(base_name col)
            <> None
        | None -> false)
      conjs
  in
  let rel, remaining =
    match indexed_conjunct with
    | Some conj ->
        let col, (lo, hi) = Option.get (sargable schema conj) in
        let index =
          Option.get
            (Database.get_index db ~table:table_name ~column:(base_name col))
        in
        stats := { !stats with index_scans = !stats.index_scans + 1 };
        Metrics.incr m_index_lookups;
        Trace.add_count "index_lookups" 1;
        let positions = Index.range ?lo ?hi index in
        let rows = List.map (Relation.row qualified_rel) positions in
        ( Relation.create schema rows,
          List.filter (fun c -> c != conj) conjs )
    | None -> (qualified_rel, conjs)
  in
  let scanned = Relation.cardinality rel in
  Metrics.incr ~by:scanned m_rows_scanned;
  Trace.add_count "rows_scanned" scanned;
  let out =
    List.fold_left
      (fun acc conj ->
        stats := { !stats with pushed_predicates = !stats.pushed_predicates + 1 };
        Metrics.incr m_pushed_predicates;
        (* Compiled once here, then invoked per row on worker domains. *)
        let pred = compile schema conj in
        chunked_filter ?gov (fun row -> Value.truthy (pred row)) acc)
      rel remaining
  in
  Trace.add_count "rows_out" (Relation.cardinality out);
  out)

(* ---- hash join ------------------------------------------------------- *)

(* Equi-join keys linking [left_schema] to [right_schema]: conjuncts of
   the form a = b with one side in each schema. *)
let equi_keys left_schema right_schema conjs =
  List.filter_map
    (fun conj ->
      match conj with
      | Binop (Eq, (Col a as ca), (Col b as cb)) ->
          let in_left c = Schema.index_of left_schema c <> None in
          let in_right c = Schema.index_of right_schema c <> None in
          if in_left a && in_right b && not (in_left b) then Some (conj, ca, cb)
          else if in_left b && in_right a && not (in_left a) then
            Some (conj, cb, ca)
          else None
      | _ -> None)
    conjs

let hash_join ?gov ~compile left right keys =
  Trace.with_span ~name:"sql.hash_join" (fun () ->
  Metrics.incr m_hash_joins;
  Metrics.incr ~by:(Relation.cardinality right) m_hash_join_build_rows;
  Metrics.incr ~by:(Relation.cardinality left) m_hash_join_probe_rows;
  Trace.add_count "build_rows" (Relation.cardinality right);
  Trace.add_count "probe_rows" (Relation.cardinality left);
  let left_schema = Relation.schema left in
  let right_schema = Relation.schema right in
  let left_exprs = List.map (fun (_, l, _) -> l) keys in
  let right_exprs = List.map (fun (_, _, r) -> r) keys in
  let left_fns = List.map (compile left_schema) left_exprs in
  let right_fns = List.map (compile right_schema) right_exprs in
  let key_values fns row = List.map (fun f -> f row) fns in
  let pool = Pool.get_default () in
  let par n = Pool.size pool > 1 && n >= par_threshold in
  (* Build: key expressions are evaluated over row chunks in parallel
     (pure reads into disjoint array slots), then inserted sequentially
     so the bucket ordering — and hence [find_all] order — matches the
     sequential build exactly. *)
  let rrows = Relation.rows right in
  let rkeys =
    let n = Array.length rrows in
    let out = Array.make n [] in
    let fill i =
      poll gov i;
      out.(i) <- key_values right_fns rrows.(i)
    in
    if par n then Pool.parallel_for pool n fill
    else
      for i = 0 to n - 1 do
        fill i
      done;
    out
  in
  let table = Value.Key_tbl.create (Array.length rrows) in
  Array.iteri
    (fun i row ->
      let values = rkeys.(i) in
      if not (List.exists Value.is_null values) then
        Value.Key_tbl.add table values row)
    rrows;
  (* Probe: read-only against the finished build table, chunked over the
     left rows with chunk outputs concatenated in order. *)
  let lrows = Relation.rows left in
  let probe_chunk ~lo ~hi =
    let out = ref [] in
    for i = lo to hi - 1 do
      poll gov i;
      let lrow = lrows.(i) in
      let values = key_values left_fns lrow in
      if not (List.exists Value.is_null values) then
        List.iter
          (fun rrow -> out := Array.append lrow rrow :: !out)
          (Value.Key_tbl.find_all table values)
    done;
    List.rev !out
  in
  let nleft = Array.length lrows in
  let parts =
    if par nleft then Pool.map_chunks pool ~n:nleft probe_chunk
    else [ probe_chunk ~lo:0 ~hi:nleft ]
  in
  let joined =
    Relation.create (Schema.concat left_schema right_schema) (List.concat parts)
  in
  Trace.add_count "rows_out" (Relation.cardinality joined);
  joined)

(* Nested-loop product with a governance poll and a metered row count.
   This is where a poison cross-join burns its CPU, so it is the single
   most important cancellation point in the SQL engine: the row counter
   is flushed to the metrics registry at every poll, which is what lets
   the abandoned-worker regression test observe "the counter stopped
   incrementing" from outside.  Row order is identical to
   [Relation.product] (outer left, inner right). *)
let governed_product ?gov a b =
  Trace.with_span ~name:"sql.product" (fun () ->
      let arows = Relation.rows a and brows = Relation.rows b in
      let out = ref [] in
      let produced = ref 0 and pending = ref 0 in
      let flush () =
        Metrics.incr ~by:!pending m_product_rows;
        (match gov with
        | Some g -> Gov.spend g Gov.Sql_rows !pending
        | None -> ());
        pending := 0
      in
      (try
         Array.iter
           (fun ra ->
             Array.iter
               (fun rb ->
                 if !produced land poll_mask = 0 then begin
                   flush ();
                   Gov.tick_opt ~resource:Gov.Sql_rows gov
                 end;
                 incr produced;
                 incr pending;
                 out := Array.append ra rb :: !out)
               brows)
           arows
       with e ->
         flush ();
         raise e);
      flush ();
      let p =
        Relation.create
          (Schema.concat (Relation.schema a) (Relation.schema b))
          (List.rev !out)
      in
      Trace.add_count "rows_out" !produced;
      p)

(* ---- the plan -------------------------------------------------------- *)

let execute ?gov db ~compile ~from ~where =
  Trace.with_span ~name:"sql.plan" (fun () ->
  match from with
  | [] -> failwith "empty FROM clause"
  | first :: rest ->
      let stats = ref no_stats in
      let all_conjuncts =
        match where with Some e -> conjuncts e | None -> []
      in
      let consumed = ref [] in
      let consume c = consumed := c :: !consumed in
      let is_consumed c = List.memq c !consumed in
      let tables = List.map (load db) (first :: rest) in
      let schemas = List.map (fun (_, rel) -> Relation.schema rel) tables in
      (* A conjunct belongs to table i when its columns resolve there and
         in no other table (unambiguous assignment). *)
      let single_table_conjuncts i =
        List.filter
          (fun conj ->
            (not (is_consumed conj))
            && columns_of [] conj <> []
            && List.for_all
                 (fun col ->
                   let hits =
                     List.filteri
                       (fun j schema ->
                         ignore j;
                         Schema.index_of schema col <> None)
                       schemas
                   in
                   List.length hits = 1)
                 (columns_of [] conj)
            && resolvable (List.nth schemas i) conj)
          all_conjuncts
      in
      let scanned =
        List.mapi
          (fun i (table_name, rel) ->
            let conjs = single_table_conjuncts i in
            List.iter consume conjs;
            scan ?gov db ~compile ~stats table_name rel conjs)
          tables
      in
      let apply_ready acc =
        let schema = Relation.schema acc in
        List.fold_left
          (fun acc conj ->
            if (not (is_consumed conj)) && resolvable schema conj then begin
              consume conj;
              stats :=
                { !stats with pushed_predicates = !stats.pushed_predicates + 1 };
              let pred = compile schema conj in
              chunked_filter ?gov (fun row -> Value.truthy (pred row)) acc
            end
            else acc)
          acc all_conjuncts
      in
      let joined =
        match scanned with
        | [] -> assert false
        | first :: rest ->
            List.fold_left
              (fun acc next ->
                let pending =
                  List.filter (fun c -> not (is_consumed c)) all_conjuncts
                in
                let keys =
                  equi_keys (Relation.schema acc) (Relation.schema next)
                    pending
                in
                let joined =
                  if keys <> [] then begin
                    List.iter (fun (conj, _, _) -> consume conj) keys;
                    stats := { !stats with hash_joins = !stats.hash_joins + 1 };
                    hash_join ?gov ~compile acc next keys
                  end
                  else begin
                    stats :=
                      { !stats with nested_products = !stats.nested_products + 1 };
                    Metrics.incr m_nested_products;
                    governed_product ?gov acc next
                  end
                in
                apply_ready joined)
              (apply_ready first) rest
      in
      (* Anything left (e.g. pure-subquery predicates, or predicates whose
         columns are ambiguous) evaluates against the full schema — the
         same behaviour, including errors, as the naive path. *)
      let final_schema = Relation.schema joined in
      let result =
        List.fold_left
          (fun acc conj ->
            if is_consumed conj then acc
            else
              let pred = compile final_schema conj in
              chunked_filter ?gov (fun row -> Value.truthy (pred row)) acc)
          joined all_conjuncts
      in
      Trace.add_count "rows_out" (Relation.cardinality result);
      (result, !stats))
