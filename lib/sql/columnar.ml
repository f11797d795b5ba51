open Ast
module Value = Pb_relation.Value
module Schema = Pb_relation.Schema
module Relation = Pb_relation.Relation
module Column = Pb_store.Column
module Table = Pb_store.Table
module Mode = Pb_store.Mode
module Metrics = Pb_obs.Metrics
module Gov = Pb_util.Gov

(* Columnar fast paths over {!Pb_store.Table} images, driven by the batch
   kernels in {!Batch}. Every entry point is all-or-nothing: it answers
   the statement bit-identically to the row engine or returns [None] and
   the caller falls back. Bailing is always safe — the row engine is
   the oracle — so the bail conditions only have to be conservative, not
   mode-independent. *)

let m_selects =
  Metrics.counter ~help:"SELECT blocks answered end-to-end by the columnar engine"
    "pb_store_selects_total"

let m_scans =
  Metrics.counter
    ~help:"Columnar scan fast paths taken (planner scans and DML predicates)"
    "pb_store_scans_total"

type bail =
  | Join
  | Distinct
  | Having
  | Index
  | Order
  | Predicate
  | Group_key
  | Item
  | Missing_table

let m_bails =
  List.map
    (fun (r, name) ->
      ( r,
        Metrics.counter
          ~help:("Columnar fall-backs to the row evaluator, reason: " ^ name)
          ("pb_store_bail_" ^ name ^ "_total") ))
    [
      (Join, "join"); (Distinct, "distinct"); (Having, "having");
      (Index, "index"); (Order, "order"); (Predicate, "predicate");
      (Group_key, "group_key"); (Item, "item"); (Missing_table, "missing_table");
    ]

let bail r =
  Metrics.incr (List.assq r m_bails);
  None

let poll gov i =
  if i land 255 = 0 then Gov.tick_opt ~resource:Gov.Sql_rows gov

let bool_kernel schema tbl e =
  match Batch.compile schema tbl e with
  | Some k when k.Batch.kind = Batch.K_bool -> Some k
  | _ -> None

(* ---- selection vectors ------------------------------------------------ *)

(* sel &= (kern = true), chunk at a time. Kernels never raise, so the
   order in which several conjuncts restrict the vector is immaterial. *)
let restrict ?gov tbl sel kern =
  let n = Table.distinct tbl in
  let lo = ref 0 and chunks = ref 0 in
  while !lo < n do
    Gov.tick_opt ~resource:Gov.Sql_rows gov;
    let len = min Batch.chunk (n - !lo) in
    let b = Batch.as_b3 (kern.Batch.run ~lo:!lo ~len) in
    for i = 0 to len - 1 do
      if Bytes.get sel (!lo + i) = '\001' && Bytes.get b i <> '\001' then
        Bytes.set sel (!lo + i) '\000'
    done;
    incr chunks;
    lo := !lo + len
  done;
  Table.tick_chunks !chunks

let selection ?gov tbl kern =
  let sel = Bytes.make (Table.distinct tbl) '\001' in
  restrict ?gov tbl sel kern;
  sel

(* ---- expanded-order iteration ---------------------------------------- *)

(* Visit every original row position in order as [f pos id]. *)
let iter_positions tbl f =
  match Table.order tbl with
  | Some ord -> Array.iteri f ord
  | None ->
      for id = 0 to Table.distinct tbl - 1 do
        f id id
      done

let iter_selected tbl sel f =
  iter_positions tbl (fun pos id ->
      if Bytes.get sel id = '\001' then f pos id)

(* The stored rows of [rel] (the relation [tbl] was built from) whose
   distinct id satisfies [keep], in stored order: one counting pass and
   one filling pass, sharing the row arrays instead of rebuilding them
   from the image. *)
let gather tbl rel keep =
  let stored = Relation.rows rel in
  let n = ref 0 in
  iter_positions tbl (fun _pos id -> if keep id then incr n);
  let out = Array.make !n [||] and k = ref 0 in
  iter_positions tbl (fun pos id ->
      if keep id then begin
        out.(!k) <- stored.(pos);
        incr k
      end);
  out

(* ---- vectorized projection ------------------------------------------- *)

(* Exact per-row values of a kernel for the selected ids (chunks with no
   selected row are skipped). [int_valued] is what makes the Int/Float
   tag reconstruction exact — see the {!Batch} contract. *)
let kernel_values tbl sel (k : Batch.t) =
  let n = Table.distinct tbl in
  let out = Array.make n Value.Null in
  let lo = ref 0 and chunks = ref 0 in
  while !lo < n do
    let len = min Batch.chunk (n - !lo) in
    let any = ref false in
    for i = !lo to !lo + len - 1 do
      if Bytes.get sel i = '\001' then any := true
    done;
    if !any then begin
      incr chunks;
      (match k.Batch.run ~lo:!lo ~len with
      | Batch.Num (v, nulls) ->
          for i = 0 to len - 1 do
            if Bytes.get sel (!lo + i) = '\001' && not (Batch.null_at nulls i)
            then
              out.(!lo + i) <-
                (if k.Batch.int_valued then Value.Int (int_of_float v.(i))
                 else Value.Float v.(i))
          done
      | Batch.B3 b ->
          for i = 0 to len - 1 do
            if Bytes.get sel (!lo + i) = '\001' then
              match Bytes.get b i with
              | '\001' -> out.(!lo + i) <- Value.Bool true
              | '\000' -> out.(!lo + i) <- Value.Bool false
              | _ -> ()
          done
      | Batch.Sv (dict, codes) ->
          for i = 0 to len - 1 do
            if Bytes.get sel (!lo + i) = '\001' && codes.(i) >= 0 then
              out.(!lo + i) <- Value.Str dict.(codes.(i))
          done)
    end;
    lo := !lo + len
  done;
  Table.tick_chunks !chunks;
  out

type item_plan = Direct of int | Kernel of Batch.t

(* Each projected item either reads a column (any layout, [Column.get] is
   always exact) or runs a compiled kernel. Anything else bails. *)
let plan_items schema tbl items =
  let rec walk acc = function
    | [] -> Some (List.rev acc)
    | Expr_item (Col c, _) :: rest -> (
        match Schema.index_of schema c with
        | Some i -> walk (Direct i :: acc) rest
        | None -> None)
    | Expr_item (e, _) :: rest -> (
        match Batch.compile schema tbl e with
        | Some k -> walk (Kernel k :: acc) rest
        | None -> None)
    | Star_item :: _ -> None (* expand_items already removed these *)
  in
  walk [] items

let project_ungrouped ?gov tbl sel plans =
  let sources =
    List.map
      (function
        | Direct i -> `Col (Table.col tbl i)
        | Kernel k -> `Vals (kernel_values tbl sel k))
      plans
  in
  (* Duplicates of a distinct row share one output array, like the row
     materializer (rows are never mutated in place downstream). *)
  let cache = Array.make (Table.distinct tbl) None in
  let out_row id =
    match cache.(id) with
    | Some r -> r
    | None ->
        let r =
          Array.of_list
            (List.map
               (function
                 | `Col c -> Column.get c id
                 | `Vals v -> v.(id))
               sources)
        in
        cache.(id) <- Some r;
        r
  in
  let out = ref [] in
  let i = ref 0 in
  iter_selected tbl sel (fun _pos id ->
      poll gov !i;
      incr i;
      out := out_row id :: !out);
  List.rev !out

(* ---- grouped aggregation ---------------------------------------------- *)

type agg_plan =
  | Rep of int  (* group-representative column read *)
  | Const of Value.t
  | Count_star_p
  | Num_agg of agg_func * Batch.t
  | Str_agg of agg_func * Batch.t
  | Bool_count of Batch.t

(* The row engine accumulates float SUM/AVG sequentially over expanded
   rows; multiplicity-weighted accumulation only reproduces that
   bit-for-bit when the values are integers (exact below 2^53). Float
   aggregates over a compressed table therefore bail to the row path. *)
let plan_agg_items schema tbl items =
  let compressed = Table.compressed tbl in
  let plan_one = function
    | Star_item -> None
    | Expr_item (Col c, _) ->
        Option.map (fun i -> Rep i) (Schema.index_of schema c)
    | Expr_item (Lit v, _) -> Some (Const v)
    | Expr_item (Agg (Count_star, _), _) -> Some Count_star_p
    | Expr_item (Agg (f, Some arg), _) -> (
        match Batch.compile schema tbl arg with
        | None -> None
        | Some k -> (
            match k.Batch.kind with
            | Batch.K_num ->
                if
                  (f = Sum || f = Avg)
                  && (not k.Batch.int_valued)
                  && compressed
                then None
                else Some (Num_agg (f, k))
            | Batch.K_str -> (
                match f with
                | Count | Min | Max -> Some (Str_agg (f, k))
                | _ -> None)
            | Batch.K_bool -> (
                match f with Count -> Some (Bool_count k) | _ -> None)))
    | Expr_item _ -> None
  in
  let rec walk acc = function
    | [] -> Some (List.rev acc)
    | item :: rest -> (
        match plan_one item with
        | Some p -> walk (p :: acc) rest
        | None -> None)
  in
  walk [] items

(* Drive one kernel over the chunks that contain grouped rows, handing
   each (group, in-chunk index, id) to [f]. *)
let iter_agg_chunks tbl gids (k : Batch.t) f =
  let n = Table.distinct tbl in
  let lo = ref 0 and chunks = ref 0 in
  while !lo < n do
    let len = min Batch.chunk (n - !lo) in
    let any = ref false in
    for i = !lo to !lo + len - 1 do
      if gids.(i) >= 0 then any := true
    done;
    if !any then begin
      incr chunks;
      let vec = k.Batch.run ~lo:!lo ~len in
      for i = 0 to len - 1 do
        let id = !lo + i in
        let g = gids.(id) in
        if g >= 0 then f g i id vec
      done
    end;
    lo := !lo + len
  done;
  Table.tick_chunks !chunks

let num_agg_values tbl gids ngroups f (k : Batch.t) =
  let cnt = Array.make ngroups 0 in
  let fsum = Array.make ngroups 0.0 in
  let isum = Array.make ngroups 0 in
  let best = Array.make ngroups 0.0 in
  iter_agg_chunks tbl gids k (fun g i id vec ->
      let v, nulls = Batch.as_num vec in
      if not (Batch.null_at nulls i) then begin
        let x = v.(i) in
        let m = Table.multiplicity tbl id in
        (match f with
        | Min -> if cnt.(g) = 0 || Float.compare x best.(g) < 0 then best.(g) <- x
        | Max -> if cnt.(g) = 0 || Float.compare x best.(g) > 0 then best.(g) <- x
        | Sum | Avg ->
            if k.Batch.int_valued then
              (* Native-int accumulation wraps exactly like the row
                 engine's integer SUM. *)
              isum.(g) <- isum.(g) + (m * int_of_float x);
            fsum.(g) <- fsum.(g) +. (float_of_int m *. x)
        | Count | Count_star -> ());
        cnt.(g) <- cnt.(g) + m
      end);
  Array.init ngroups (fun g ->
      match f with
      | Count -> Value.Int cnt.(g)
      | _ when cnt.(g) = 0 -> Value.Null
      | Sum ->
          if k.Batch.int_valued then Value.Int isum.(g) else Value.Float fsum.(g)
      | Avg -> Value.Float (fsum.(g) /. float_of_int cnt.(g))
      | Min | Max ->
          if k.Batch.int_valued then Value.Int (int_of_float best.(g))
          else Value.Float best.(g)
      | Count_star -> assert false)

let str_agg_values tbl gids ngroups f (k : Batch.t) =
  let cnt = Array.make ngroups 0 in
  let best = Array.make ngroups "" in
  iter_agg_chunks tbl gids k (fun g i id vec ->
      let dict, codes = Batch.as_sv vec in
      if codes.(i) >= 0 then begin
        let s = dict.(codes.(i)) in
        (match f with
        | Min -> if cnt.(g) = 0 || String.compare s best.(g) < 0 then best.(g) <- s
        | Max -> if cnt.(g) = 0 || String.compare s best.(g) > 0 then best.(g) <- s
        | _ -> ());
        cnt.(g) <- cnt.(g) + Table.multiplicity tbl id
      end);
  Array.init ngroups (fun g ->
      match f with
      | Count -> Value.Int cnt.(g)
      | _ when cnt.(g) = 0 -> Value.Null
      | Min | Max -> Value.Str best.(g)
      | _ -> assert false)

let bool_count_values tbl gids ngroups (k : Batch.t) =
  let cnt = Array.make ngroups 0 in
  iter_agg_chunks tbl gids k (fun g i id vec ->
      let b = Batch.as_b3 vec in
      if Bytes.get b i <> '\002' then
        cnt.(g) <- cnt.(g) + Table.multiplicity tbl id);
  Array.init ngroups (fun g -> Value.Int cnt.(g))

let project_grouped ?gov tbl sel key_idxs plans ~single_group =
  let n = Table.distinct tbl in
  let gids = Array.make n (-1) in
  let key_cols = List.map (Table.col tbl) key_idxs in
  let seen = Value.Key_tbl.create 64 in
  let ngroups = ref 0 in
  let reps = ref [] in
  (* Ascending distinct-id order IS first-appearance order over the
     expanded rows (ids are assigned by first occurrence), so both group
     creation order and the group representative (the row engine's first
     row of each group) fall out of a single ascending scan. *)
  let i = ref 0 in
  for id = 0 to n - 1 do
    if Bytes.get sel id = '\001' then begin
      poll gov !i;
      incr i;
      let gid =
        if single_group then
          if !ngroups = 0 then begin
            incr ngroups;
            reps := id :: !reps;
            0
          end
          else 0
        else
          let key = List.map (fun c -> Column.get c id) key_cols in
          match Value.Key_tbl.find_opt seen key with
          | Some g -> g
          | None ->
              let g = !ngroups in
              incr ngroups;
              Value.Key_tbl.add seen key g;
              reps := id :: !reps;
              g
      in
      gids.(id) <- gid
    end
  done;
  (* SELECT aggregates with no GROUP BY see one group even on empty
     input (COUNT of nothing is 0, everything else NULL). *)
  if single_group && !ngroups = 0 then ngroups := 1;
  let ngroups = !ngroups in
  let reps = Array.of_list (List.rev !reps) in
  let star = Array.make ngroups 0 in
  for id = 0 to n - 1 do
    if gids.(id) >= 0 then
      star.(gids.(id)) <- star.(gids.(id)) + Table.multiplicity tbl id
  done;
  let columns =
    List.map
      (function
        | Rep idx ->
            let c = Table.col tbl idx in
            `Fn
              (fun g ->
                if g < Array.length reps then Column.get c reps.(g)
                else Value.Null)
        | Const v -> `Fn (fun _ -> v)
        | Count_star_p -> `Fn (fun g -> Value.Int star.(g))
        | Num_agg (f, k) -> `Arr (num_agg_values tbl gids ngroups f k)
        | Str_agg (f, k) -> `Arr (str_agg_values tbl gids ngroups f k)
        | Bool_count k -> `Arr (bool_count_values tbl gids ngroups k))
      plans
  in
  List.init ngroups (fun g ->
      Gov.tick_opt ~resource:Gov.Sql_rows gov;
      Array.of_list
        (List.map
           (function `Fn f -> f g | `Arr a -> a.(g))
           columns))

(* ---- ORDER BY / OFFSET / LIMIT ---------------------------------------- *)

(* Only output-column keys vectorize (the row path's [`Src] keys evaluate
   source expressions against row provenance, which we don't carry). *)
let order_plan out_schema order_by =
  let rec walk acc = function
    | [] -> Some (List.rev acc)
    | (Col name, dir) :: rest -> (
        match Schema.index_of out_schema name with
        | Some i -> walk ((i, dir) :: acc) rest
        | None -> None)
    | _ -> None
  in
  walk [] order_by

let order_limit (q : select) keys rows =
  let rows =
    match keys with
    | [] -> rows
    | keys ->
        let cmp a b =
          let rec walk = function
            | [] -> 0
            | (i, dir) :: rest ->
                let c = Value.compare_values a.(i) b.(i) in
                let c = match dir with Asc -> c | Desc -> -c in
                if c <> 0 then c else walk rest
          in
          walk keys
        in
        List.stable_sort cmp rows
  in
  let rows =
    match q.offset with
    | None -> rows
    | Some skip -> List.filteri (fun i _ -> i >= skip) rows
  in
  match q.limit with
  | None -> rows
  | Some k -> List.filteri (fun i _ -> i < k) rows

(* ---- entry points ----------------------------------------------------- *)

let try_select ?gov db (q : select) =
  if not (Mode.columnar ()) then None
  else
    match q.from with
    | _ :: _ :: _ | [] -> bail Join
    | _ when q.distinct -> bail Distinct
    | _ when q.having <> None -> bail Having
    | [ { rel_name; alias } ] -> (
        match Database.find db rel_name with
        | None -> bail Missing_table (* the row path raises its usual error *)
        | Some rel ->
            (* A declared index changes the row path's access method (and
               builds the index as a side effect); keep that behavior. *)
            if q.where <> None && Database.indexed_columns db rel_name <> []
            then bail Index
            else
              let qualifier = Option.value alias ~default:rel_name in
              let schema = Schema.qualify qualifier (Relation.schema rel) in
              let items = Shape.expand_items schema q.items in
              let out_schema = Shape.output_schema schema items in
              match order_plan out_schema q.order_by with
              | None -> bail Order
              | Some keys -> (
                  let tbl = Database.columnar db rel_name rel in
                  let wherek =
                    match q.where with
                    | None -> Some None
                    | Some pred -> (
                        match bool_kernel schema tbl pred with
                        | Some k -> Some (Some k)
                        | None -> None)
                  in
                  match wherek with
                  | None -> bail Predicate
                  | Some wherek -> (
                      let grouped = Shape.grouped q items in
                      let run_plans =
                        if grouped then
                          let key_idxs =
                            List.fold_left
                              (fun acc e ->
                                match (acc, e) with
                                | Some idxs, Col c ->
                                    Option.map
                                      (fun i -> i :: idxs)
                                      (Schema.index_of schema c)
                                | _ -> None)
                              (Some []) q.group_by
                          in
                          match (key_idxs, plan_agg_items schema tbl items) with
                          | Some idxs, Some plans ->
                              Ok (`Grouped (List.rev idxs, plans))
                          | None, _ -> Error Group_key
                          | _, None -> Error Item
                        else
                          Option.to_result ~none:Item
                            (Option.map
                               (fun plans -> `Ungrouped plans)
                               (plan_items schema tbl items))
                      in
                      match run_plans with
                      | Error r -> bail r
                      | Ok run_plans ->
                          let sel =
                            match wherek with
                            | None -> Bytes.make (Table.distinct tbl) '\001'
                            | Some k -> selection ?gov tbl k
                          in
                          let rows =
                            match run_plans with
                            | `Ungrouped plans ->
                                project_ungrouped ?gov tbl sel plans
                            | `Grouped (key_idxs, plans) ->
                                project_grouped ?gov tbl sel key_idxs plans
                                  ~single_group:(q.group_by = [])
                          in
                          Metrics.incr m_selects;
                          Some
                            (Relation.create out_schema
                               (order_limit q keys rows)))))

(* Planner base-table scan: all pushed conjuncts must compile; the
   conjunction of their selection vectors equals the row path's
   sequential filters because compiled kernels never raise. *)
let scan ?gov db ~name rel conjs =
  if (not (Mode.columnar ())) || conjs = [] then None
  else if Database.indexed_columns db name <> [] then bail Index
  else
    let schema = Relation.schema rel in
    let tbl = Database.columnar db name rel in
    let kernels = List.map (bool_kernel schema tbl) conjs in
    if List.exists Option.is_none kernels then bail Predicate
    else begin
      let sel = Bytes.make (Table.distinct tbl) '\001' in
      List.iter (fun k -> restrict ?gov tbl sel (Option.get k)) kernels;
      Metrics.incr m_scans;
      Some
        (Relation.of_rows_unchecked schema
           (gather tbl rel (fun id -> Bytes.get sel id = '\001')))
    end

let delete_keep ?gov db ~name rel pred =
  if not (Mode.columnar ()) then None
  else
    let schema = Relation.schema rel in
    let tbl = Database.columnar db name rel in
    match bool_kernel schema tbl pred with
    | None -> bail Predicate
    | Some k ->
        let hit = selection ?gov tbl k in
        Metrics.incr m_scans;
        let kept = gather tbl rel (fun id -> Bytes.get hit id <> '\001') in
        Some
          ( Relation.of_rows_unchecked schema kept,
            Table.total tbl - Array.length kept )

let update_mask ?gov db ~name rel pred =
  if not (Mode.columnar ()) then None
  else
    let schema = Relation.schema rel in
    let tbl = Database.columnar db name rel in
    match bool_kernel schema tbl pred with
    | None -> bail Predicate
    | Some k ->
        let hit = selection ?gov tbl k in
        Metrics.incr m_scans;
        let mask = Bytes.make (Table.total tbl) '\000' in
        iter_positions tbl (fun pos id ->
            if Bytes.get hit id = '\001' then Bytes.set mask pos '\001');
        Some mask
