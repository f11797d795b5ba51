(* Differential tests for the columnar storage engine: the contract is
   bit-identical results — same rows, same order, same Int/Float tags —
   between PB_STORE=row (the interpreter oracle) and PB_STORE=columnar
   (Pb_store tables + batch kernels) on the same SQL, plus exact
   roundtrips through Table.of_relation and Persist.save_dir. Instances
   are drawn from a small row pool so duplicate tuples (multiplicity
   compression), NULLs in every column type, NaN floats and dictionary
   strings all show up with high probability. *)

module Gen = QCheck.Gen
module Value = Pb_relation.Value
module Relation = Pb_relation.Relation
module Schema = Pb_relation.Schema
module Mode = Pb_store.Mode
module Table = Pb_store.Table
module Database = Pb_sql.Database
module Executor = Pb_sql.Executor
module Coeffs = Pb_core.Coeffs

let with_mode mode f =
  let saved = Mode.current () in
  Mode.set mode;
  Fun.protect ~finally:(fun () -> Mode.set saved) f

(* %h renders floats exactly (hex), so 0. vs -0. and NaN survive the
   trip into a comparison string; the leading tag letter catches a
   kernel returning Float where the interpreter returns Int. *)
let value_repr = function
  | Value.Null -> "NULL"
  | Value.Int i -> Printf.sprintf "I%d" i
  | Value.Float f -> Printf.sprintf "F%h" f
  | Value.Bool b -> Printf.sprintf "B%b" b
  | Value.Str s -> Printf.sprintf "S%S" s

let row_repr row =
  String.concat "|" (List.map value_repr (Array.to_list row))

let rel_repr rel =
  let header =
    String.concat "|"
      (List.map
         (fun { Schema.name; ty } ->
           name ^ ":" ^ (match ty with
                        | Value.T_int -> "i"
                        | Value.T_float -> "f"
                        | Value.T_bool -> "b"
                        | Value.T_str -> "s"))
         (Schema.columns (Relation.schema rel)))
  in
  String.concat "\n" (header :: List.map row_repr (Relation.to_list rel))

let result_repr = function
  | Executor.Rows rel -> rel_repr rel
  | Executor.Affected n -> Printf.sprintf "affected %d" n
  | Executor.Created -> "created"

(* ------------------------------------------------------------------ *)
(* Random instances: rows over (v INT, f FLOAT, s TEXT, b BOOL), each
   picked from a pool of at most six distinct tuples.                  *)

let schema =
  Schema.make
    [
      { Schema.name = "v"; ty = Value.T_int };
      { Schema.name = "f"; ty = Value.T_float };
      { Schema.name = "s"; ty = Value.T_str };
      { Schema.name = "b"; ty = Value.T_bool };
    ]

let cell_int =
  Gen.oneof
    [
      Gen.return Value.Null;
      Gen.map (fun i -> Value.Int i) (Gen.int_range (-2) 6);
    ]

let cell_float =
  Gen.oneof
    [
      Gen.return Value.Null;
      Gen.map
        (fun f -> Value.Float f)
        (* near-equal and large integral floats: GROUP BY, DISTINCT and
           set operations must key them by value, not by display text *)
        (Gen.oneofl
           [ 0.0; -0.0; 1.5; -2.25; 3.75; Float.nan; 1.0000001; 1.0000002;
             1000000000001.0; 1000000000002.0 ]);
    ]

let cell_str =
  Gen.oneof
    [
      Gen.return Value.Null;
      Gen.map
        (fun s -> Value.Str s)
        (Gen.oneofl [ "aa"; "ab"; "ba"; ""; "NULL"; "a,b" ]);
    ]

let cell_bool =
  Gen.oneof
    [ Gen.return Value.Null; Gen.map (fun b -> Value.Bool b) Gen.bool ]

let tuple_gen =
  Gen.map
    (fun (v, f, s, b) -> [| v; f; s; b |])
    (Gen.quad cell_int cell_float cell_str cell_bool)

type inst = { rows : Value.t array list }

let inst_gen =
  let open Gen in
  let* pool_n = int_range 1 6 in
  let* pool = list_repeat pool_n tuple_gen in
  let* n = int_range 0 30 in
  let* rows = list_repeat n (oneofl pool) in
  return { rows }

let print_inst i =
  String.concat " ; " (List.map row_repr i.rows)

(* Every statement below must behave identically in both modes — DML
   included, since updates invalidate the columnar image and the next
   scan rebuilds it. Statements the batch compiler bails on (e.g. the
   self-join) are equally part of the contract: bail means "fall back to
   the row path", never "answer differently". *)
let statements =
  [
    "SELECT * FROM t";
    "SELECT s, v FROM t WHERE v > 2";
    "SELECT * FROM t WHERE f < 1.0 OR v IS NULL";
    "SELECT * FROM t WHERE s LIKE '%a%'";
    "SELECT * FROM t WHERE s = 'aa' AND b = TRUE";
    "SELECT * FROM t WHERE v IN (1, 2, 5) OR s IN ('ba', 'NULL')";
    "SELECT * FROM t WHERE v BETWEEN 0 AND 4";
    "SELECT * FROM t WHERE NOT (v <= 3)";
    "SELECT v * 2 + 1, f / 2.0, v - f, -v FROM t";
    "SELECT length(s), upper(s), abs(v), round(f) FROM t WHERE v IS NOT NULL";
    "SELECT s, COUNT(*), SUM(v), AVG(f), MIN(v), MAX(f) FROM t GROUP BY s \
     ORDER BY s";
    "SELECT COUNT(*), SUM(f), SUM(v) FROM t";
    "SELECT f, COUNT(*), MIN(v) FROM t GROUP BY f ORDER BY f";
    "SELECT DISTINCT f FROM t";
    "SELECT f FROM t UNION SELECT f FROM t WHERE v > 0";
    "SELECT * FROM t WHERE v = f";
    "SELECT * FROM t ORDER BY v, f, s, b LIMIT 4 OFFSET 1";
    "SELECT a.v, b.v FROM t a, t b WHERE a.v < b.v ORDER BY a.v, b.v";
    "UPDATE t SET v = v + 1 WHERE v > 1";
    "SELECT * FROM t";
    "UPDATE t SET s = 'zz' WHERE f IS NULL";
    "DELETE FROM t WHERE v IN (3, 4)";
    "SELECT * FROM t";
  ]

let run_session mode rows =
  with_mode mode (fun () ->
      let db = Database.create () in
      Database.put db "t" (Relation.create schema rows);
      List.map
        (fun sql ->
          match Executor.execute_sql db sql with
          | r -> result_repr r
          | exception Executor.Eval_error msg -> "error " ^ msg)
        statements)

let prop_differential =
  QCheck.Test.make ~count:150 ~name:"columnar session == row session"
    (QCheck.make ~print:print_inst inst_gen)
    (fun i ->
      let row_out = run_session Mode.Row i.rows in
      let col_out = run_session Mode.Columnar i.rows in
      List.iter2
        (fun (sql, r) c ->
          if r <> c then
            QCheck.Test.fail_reportf "on %s\nrow:\n%s\ncolumnar:\n%s" sql r c)
        (List.combine statements row_out)
        col_out;
      true)

(* The original relation back from a table: every position's distinct
   row, in original order. *)
let to_relation tbl =
  let rows = Array.init (Table.distinct tbl) (Table.get_row tbl) in
  Relation.create schema
    (Array.to_list
       (match Table.order tbl with
       | None -> rows
       | Some order -> Array.map (Array.get rows) order))

(* Table roundtrip: of_relation must compress duplicates yet the table
   must replay the original rows exactly, order included. *)
let prop_roundtrip =
  QCheck.Test.make ~count:300 ~name:"Table.of_relation/to_relation roundtrip"
    (QCheck.make ~print:print_inst inst_gen)
    (fun i ->
      let rel = Relation.create schema i.rows in
      let tbl = Table.of_relation rel in
      let n = List.length i.rows in
      if Table.total tbl <> n then
        QCheck.Test.fail_reportf "total %d <> %d rows" (Table.total tbl) n;
      let mult_sum = ref 0 in
      for id = 0 to Table.distinct tbl - 1 do
        let m = Table.multiplicity tbl id in
        if m < 1 then QCheck.Test.fail_reportf "multiplicity %d for id %d" m id;
        mult_sum := !mult_sum + m
      done;
      if !mult_sum <> n then
        QCheck.Test.fail_reportf "multiplicities sum to %d <> %d" !mult_sum n;
      let back = rel_repr (to_relation tbl) in
      let orig = rel_repr rel in
      if back <> orig then
        QCheck.Test.fail_reportf "roundtrip mismatch\norig:\n%s\nback:\n%s"
          orig back;
      true)

(* ------------------------------------------------------------------ *)
(* Deterministic unit tests.                                           *)

let dup_rows =
  [
    [| Value.Int 1; Value.Float 1.5; Value.Str "rice"; Value.Bool true |];
    [| Value.Int 1; Value.Float 1.5; Value.Str "rice"; Value.Bool true |];
    [| Value.Int 1; Value.Float 1.5; Value.Str "rice"; Value.Bool true |];
    (* No empty string here: the CSV persist format cannot distinguish
       TEXT '' from NULL on reload (an orthogonal, mode-independent
       limitation), and this fixture also feeds the persist roundtrip. *)
    [| Value.Null; Value.Float Float.nan; Value.Str "oat"; Value.Null |];
    [| Value.Int 4; Value.Null; Value.Null; Value.Bool false |];
    [| Value.Int 1; Value.Float 1.5; Value.Str "rice"; Value.Bool true |];
  ]

let test_compression () =
  let tbl = Table.of_relation (Relation.create schema dup_rows) in
  Alcotest.(check bool) "compressed" true (Table.compressed tbl);
  Alcotest.(check int) "total" 6 (Table.total tbl);
  Alcotest.(check int) "distinct" 3 (Table.distinct tbl);
  Alcotest.(check bool) "order present" true (Table.order tbl <> None);
  Alcotest.(check string) "rows replayed in insertion order"
    (rel_repr (Relation.create schema dup_rows))
    (rel_repr (to_relation tbl))

let test_uncompressed () =
  let rows =
    List.init 5 (fun i ->
        [| Value.Int i; Value.Float (float_of_int i); Value.Str "x";
           Value.Bool (i mod 2 = 0) |])
  in
  let tbl = Table.of_relation (Relation.create schema rows) in
  Alcotest.(check bool) "not compressed" false (Table.compressed tbl);
  Alcotest.(check int) "distinct = total" (Table.total tbl)
    (Table.distinct tbl);
  Alcotest.(check string) "identity roundtrip"
    (rel_repr (Relation.create schema rows))
    (rel_repr (to_relation tbl))

(* save_dir streams through the columnar image when one is resident; the
   bytes on disk must not depend on the storage mode, and a reload must
   reproduce the relation exactly. *)
let test_persist_mode_independent () =
  let mk () =
    let db = Database.create () in
    Database.put db "pantry" (Relation.create schema dup_rows);
    db
  in
  let tmp suffix =
    let dir = Filename.temp_file "pb_columnar" suffix in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    dir
  in
  let read_file path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let dir_row = tmp "_row" and dir_col = tmp "_col" in
  with_mode Mode.Row (fun () -> Pb_sql.Persist.save_dir (mk ()) dir_row);
  with_mode Mode.Columnar (fun () ->
      let db = mk () in
      (* Warm the columnar cache so save_dir takes the compressed path. *)
      ignore (Executor.execute_sql db "SELECT COUNT(*) FROM pantry");
      Pb_sql.Persist.save_dir db dir_col);
  Alcotest.(check string) "CSV bytes identical across modes"
    (read_file (Filename.concat dir_row "pantry.csv"))
    (read_file (Filename.concat dir_col "pantry.csv"));
  let loaded = Pb_sql.Persist.load_dir dir_col in
  Alcotest.(check string) "reload reproduces the relation"
    (rel_repr (Relation.create schema dup_rows))
    (rel_repr (Database.find_exn loaded "pantry"));
  List.iter
    (fun dir ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    [ dir_row; dir_col ]

(* PaQL coefficient extraction: candidate relation, linearized formula
   and objective vectors must be bit-identical whichever engine filtered
   the base table. *)
let test_coeffs_parity () =
  let meal_query =
    "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' SUCH THAT \
     COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 MAXIMIZE \
     SUM(P.protein)"
  in
  let coeffs mode =
    with_mode mode (fun () ->
        let db = Database.create () in
        Database.put db "recipes"
          (Pb_workload.Workload.recipes ~seed:7 ~n:24 ());
        Coeffs.make db (Pb_paql.Parser.parse meal_query))
  in
  let row = coeffs Mode.Row and col = coeffs Mode.Columnar in
  Alcotest.(check string) "candidates identical"
    (rel_repr row.Coeffs.candidates)
    (rel_repr col.Coeffs.candidates);
  Alcotest.(check int) "n" row.Coeffs.n col.Coeffs.n;
  Alcotest.(check int) "max_mult" row.Coeffs.max_mult col.Coeffs.max_mult;
  Alcotest.(check bool) "formula identical" true
    (row.Coeffs.formula = col.Coeffs.formula);
  Alcotest.(check bool) "objective identical" true
    (row.Coeffs.objective = col.Coeffs.objective)

(* ------------------------------------------------------------------ *)
(* PaQL candidates: the columnar path gathers the stored relation's own
   rows (through the image's original-position -> distinct-id map when
   the image is compressed) instead of rebuilding them from the image.
   Over random tables and random write sessions, it must return what the
   row path returns, share the stored row arrays, and extract bitwise
   equal coefficient vectors.                                            *)

(* Base predicates: the first group compiles to batch kernels, the
   second (CASE, subqueries) makes the columnar path fall back. *)
let kernel_wheres =
  [
    "R.v > 2";
    "R.f < 1.0 OR R.v IS NULL";
    "R.s LIKE '%a%'";
    "R.s = 'aa' AND R.b = TRUE";
    "R.v BETWEEN 0 AND 4";
    "NOT (R.v <= 3)";
    "R.v = R.f";
    "R.f = 0.0";
    "R.v IN (1, 2, 5) OR R.s IN ('ba', 'NULL')";
  ]

let fallback_wheres =
  [
    "CASE WHEN R.v > 1 THEN TRUE ELSE FALSE END";
    "R.v IN (SELECT v FROM t WHERE b = TRUE)";
  ]

(* Global parts: SUM, AVG and MIN/MAX atoms, a BETWEEN over an argument
   the objective repeats, and an argument only the row path evaluates. *)
let such_thats =
  [
    "COUNT(*) BETWEEN 1 AND 3 AND SUM(P.f) BETWEEN -5 AND 5 MAXIMIZE \
     SUM(P.v)";
    "SUM(P.v * 2 + P.f) <= 9 AND AVG(P.f) >= -1 MINIMIZE SUM(P.f)";
    "COUNT(*) = 2 AND MAX(P.v) >= 1 AND MIN(P.f) <= 3.75 MAXIMIZE \
     SUM(P.v * 2 + P.f)";
    "SUM(CASE WHEN P.b THEN P.v ELSE 0 END) >= 1 MAXIMIZE SUM(P.v) - \
     COUNT(*)";
    "SUM(P.v) >= 1 OR SUM(P.f) <= 0";
  ]

let writes =
  [
    "INSERT INTO t VALUES (2, 1.5, 'aa', TRUE)";
    "INSERT INTO t VALUES (NULL, -0.0, 'ab', NULL), (2, 1.5, 'aa', TRUE)";
    "UPDATE t SET v = v + 1 WHERE v > 1";
    "UPDATE t SET f = -f WHERE b = TRUE";
    "UPDATE t SET s = 'zz' WHERE f IS NULL";
    "DELETE FROM t WHERE v IN (3, 4)";
    "DELETE FROM t WHERE s = 'aa'";
  ]

type step = Query of string option * string | Write of string

let step_repr = function
  | Query (w, st) ->
      Printf.sprintf "PaQL WHERE %s SUCH THAT %s"
        (Option.value w ~default:"-") st
  | Write sql -> sql

let paql_of (where, such_that) =
  "SELECT PACKAGE(R) AS P FROM t R"
  ^ (match where with Some w -> " WHERE " ^ w | None -> "")
  ^ " SUCH THAT " ^ such_that

type session = { stored : Value.t array list; steps : step list }

(* Rows are copies of pool tuples, so duplicates are equal but not
   physically shared: only a gather from the right stored index passes
   the [==] check below. Half the tables keep the pool small (the image
   is then compressed), the rest make every row distinct. *)
let session_gen =
  let open Gen in
  let* pool_n = int_range 1 5 in
  let* pool = list_repeat pool_n tuple_gen in
  let* n = int_range 0 40 in
  let* picks = list_repeat n (oneofl pool) in
  let* distinct = bool in
  let stored =
    List.mapi
      (fun i r ->
        let r = Array.copy r in
        if distinct then r.(0) <- Value.Int i;
        r)
      picks
  in
  let where =
    frequency
      [
        (1, return None);
        (5, map Option.some (oneofl kernel_wheres));
        (2, map Option.some (oneofl fallback_wheres));
      ]
  in
  let step =
    frequency
      [
        (3, map2 (fun w st -> Query (w, st)) where (oneofl such_thats));
        (2, map (fun w -> Write w) (oneofl writes));
      ]
  in
  let* k = int_range 1 8 in
  let* steps = list_repeat k step in
  return { stored; steps }

let print_session s =
  String.concat "\n"
    (("rows: " ^ String.concat " ; " (List.map row_repr s.stored))
    :: List.map step_repr s.steps)

let bits a = Array.map Int64.bits_of_float a

(* Compiled formula with every float replaced by its bit pattern, so
   that [=] compares NaNs and signed zeros exactly. *)
type formula_bits =
  | B_true
  | B_false
  | B_linear of int64 array * Pb_paql.Analyze.cmp * int64 * bool
  | B_avg of int64 array * Pb_paql.Analyze.cmp * int64
  | B_ext of bool * int64 array * Pb_paql.Analyze.cmp * int64
  | B_and of formula_bits list
  | B_or of formula_bits list

let rec formula_bits = function
  | Coeffs.C_true -> B_true
  | Coeffs.C_false -> B_false
  | Coeffs.C_atom (Coeffs.C_linear { coef; cmp; rhs; has_sum }) ->
      B_linear (bits coef, cmp, Int64.bits_of_float rhs, has_sum)
  | Coeffs.C_atom (Coeffs.C_avg { arg; cmp; rhs }) ->
      B_avg (bits arg, cmp, Int64.bits_of_float rhs)
  | Coeffs.C_atom (Coeffs.C_ext { maximum; arg; cmp; rhs }) ->
      B_ext (maximum, bits arg, cmp, Int64.bits_of_float rhs)
  | Coeffs.C_and fs -> B_and (List.map formula_bits fs)
  | Coeffs.C_or fs -> B_or (List.map formula_bits fs)

let coeffs_bits (c : Coeffs.t) =
  ( c.Coeffs.n,
    c.Coeffs.max_mult,
    Result.map formula_bits c.Coeffs.formula,
    Option.map
      (Option.map (fun (dir, coef) -> (dir, bits coef)))
      c.Coeffs.objective )

(* Every candidate row is physically one of the stored rows, found at
   strictly increasing stored indices. *)
let check_shared ~what stored cand =
  let stored = Relation.rows stored in
  let next = ref 0 in
  Array.iteri
    (fun i row ->
      while !next < Array.length stored && stored.(!next) != row do
        incr next
      done;
      if !next >= Array.length stored then
        QCheck.Test.fail_reportf
          "%s: candidate %d is not a stored row after the previous one" what i;
      incr next)
    (Relation.rows cand)

(* One session in one storage mode: per PaQL step, the candidate
   relation's repr and the coefficient bits; writes report their count. *)
let run_paql_session mode s =
  with_mode mode (fun () ->
      let db = Database.create () in
      Database.put db "t" (Relation.create schema s.stored);
      List.map
        (fun step ->
          match step with
          | Write sql -> (
              match Executor.execute_sql db sql with
              | r -> `Write (result_repr r)
              | exception Executor.Eval_error msg -> `Write ("error " ^ msg))
          | Query (where, such_that) ->
              let q = Pb_paql.Parser.parse (paql_of (where, such_that)) in
              let stored = Database.find_exn db "t" in
              let cands = Pb_paql.Semantics.candidates db q in
              let c = Coeffs.make db q in
              let what = step_repr step in
              check_shared ~what stored cands;
              check_shared ~what stored c.Coeffs.candidates;
              `Query
                (rel_repr cands, rel_repr c.Coeffs.candidates, coeffs_bits c))
        s.steps)

(* The property above cannot insist that a kernel predicate batches (a
   column with no non-NULL value, say, bails to the row path), so pin the
   gather itself on a compressed image: the batch exists, its rows are
   the stored rows at the original indices, and its ids are theirs. *)
let test_gather_compressed () =
  with_mode Mode.Columnar (fun () ->
      let db = Database.create () in
      let stored = Relation.create schema (List.map Array.copy dup_rows) in
      Database.put db "t" stored;
      let q =
        Pb_paql.Parser.parse (paql_of (Some "R.v = 1", List.hd such_thats))
      in
      match Pb_paql.Semantics.candidates_batch db q with
      | None -> Alcotest.fail "kernel predicate did not batch"
      | Some b ->
          let tbl = b.Pb_paql.Semantics.table in
          Alcotest.(check bool) "image compressed" true (Table.compressed tbl);
          let ord = Option.get (Table.order tbl) in
          let src = Relation.rows stored in
          (* rows 0, 1, 2 and 5 of [dup_rows] have v = 1 *)
          Alcotest.(check (list int)) "ids of the selected stored rows"
            (List.map (fun i -> ord.(i)) [ 0; 1; 2; 5 ])
            (Array.to_list b.Pb_paql.Semantics.positions);
          Alcotest.(check bool) "rows are the stored arrays" true
            (List.for_all2 ( == )
               (List.map (fun i -> src.(i)) [ 0; 1; 2; 5 ])
               (Array.to_list b.Pb_paql.Semantics.rows)))

let columnar_scans () =
  match List.assoc_opt "pb_store_scans_total" (Pb_obs.Metrics.snapshot ()) with
  | Some v -> v
  | None -> 0.0

(* The SQL side of the same gather: the planner's columnar base scan and
   a columnar DELETE hand back the stored row arrays themselves, in
   stored order, rather than rows rebuilt from the compressed image. *)
let test_sql_gather_compressed () =
  with_mode Mode.Columnar (fun () ->
      let db = Database.create () in
      let stored = Relation.create schema (List.map Array.copy dup_rows) in
      Database.put db "t" stored;
      let src = Relation.rows stored in
      let stored_at idxs = List.map (fun i -> src.(i)) idxs in
      Alcotest.(check bool) "image compressed" true
        (Table.compressed (Database.columnar db "t" stored));
      (* a join is beyond the end-to-end columnar SELECT, so its base
         tables go through the planner's columnar scan *)
      let before = columnar_scans () in
      (match
         Executor.execute_sql db
           "SELECT x.s, y.s FROM t x, t y WHERE x.v = 1 AND y.v = 4"
       with
      | Executor.Rows r ->
          Alcotest.(check int) "join rows" 4 (Relation.cardinality r)
      | _ -> Alcotest.fail "join returned no rows");
      Alcotest.(check bool) "join scanned columnar" true
        (columnar_scans () > before);
      (match
         Pb_sql.Columnar.scan db ~name:"t" stored
           [
             Pb_sql.Parser.(
               parse_expr_state (state_of_tokens (Pb_sql.Lexer.tokenize "v = 1")));
           ]
       with
      | None -> Alcotest.fail "kernel conjunct did not scan columnar"
      | Some r ->
          (* rows 0, 1, 2 and 5 of [dup_rows] have v = 1 *)
          Alcotest.(check bool) "scan rows are the stored arrays" true
            (List.equal ( == ) (stored_at [ 0; 1; 2; 5 ])
               (Relation.to_list r)));
      let before = columnar_scans () in
      (match Executor.execute_sql db "DELETE FROM t WHERE v = 4" with
      | Executor.Affected n -> Alcotest.(check int) "deleted" 1 n
      | _ -> Alcotest.fail "DELETE did not report affected rows");
      Alcotest.(check bool) "DELETE took the columnar path" true
        (columnar_scans () > before);
      (* row 4 is the only v = 4; row 3's NULL v is kept *)
      Alcotest.(check bool) "DELETE keeps the stored arrays" true
        (List.equal ( == ) (stored_at [ 0; 1; 2; 3; 5 ])
           (Relation.to_list (Database.find_exn db "t"))))

let prop_candidates_gather =
  QCheck.Test.make ~count:200 ~long_factor:10
    ~name:"PaQL candidates: columnar gather == row path"
    (QCheck.make ~print:print_session session_gen)
    (fun s ->
      let row_out = run_paql_session Mode.Row s in
      let col_out = run_paql_session Mode.Columnar s in
      List.iter2
        (fun step (r, c) ->
          match (r, c) with
          | `Write a, `Write b when a = b -> ()
          | `Query (ra, rb, rc), `Query (ca, cb, cc) ->
              if ra <> ca || rb <> cb then
                QCheck.Test.fail_reportf
                  "%s: candidates differ\nrow:\n%s\ncolumnar:\n%s"
                  (step_repr step) ra ca;
              if ra <> rb then
                QCheck.Test.fail_reportf
                  "%s: Coeffs.candidates <> Semantics.candidates"
                  (step_repr step);
              if rc <> cc then
                QCheck.Test.fail_reportf "%s: coefficient vectors differ"
                  (step_repr step)
          | _ ->
              QCheck.Test.fail_reportf "%s: outcomes differ" (step_repr step))
        s.steps
        (List.combine row_out col_out);
      true)

let suite =
  [
    Alcotest.test_case "multiplicity compression" `Quick test_compression;
    Alcotest.test_case "distinct rows stay uncompressed" `Quick
      test_uncompressed;
    Alcotest.test_case "persist is mode-independent" `Quick
      test_persist_mode_independent;
    Alcotest.test_case "coeffs parity row vs columnar" `Quick
      test_coeffs_parity;
    Alcotest.test_case "PaQL gather on a compressed image" `Quick
      test_gather_compressed;
    Alcotest.test_case "SQL scan and DELETE gather on a compressed image"
      `Quick test_sql_gather_compressed;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_roundtrip; prop_differential; prop_candidates_gather ]
