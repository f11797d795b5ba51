(* Property-based tests (qcheck): solver correctness against enumeration,
   pruning soundness, cross-strategy agreement, LIKE vs a reference
   matcher, and PaQL print/parse round-trips on randomly generated
   queries. *)

module Gen = QCheck.Gen
module Model = Pb_lp.Model
module Simplex = Pb_lp.Simplex
module Milp = Pb_lp.Milp
module Value = Pb_relation.Value
module Relation = Pb_relation.Relation
module Schema = Pb_relation.Schema
module Parser = Pb_paql.Parser
module Semantics = Pb_paql.Semantics
module Coeffs = Pb_core.Coeffs
module Pruning = Pb_core.Pruning

(* ---- LP: constructed-feasible instances ----------------------------- *)

type lp_instance = {
  nvars : int;
  upper : float array;
  point : float array;  (* feasible by construction *)
  rows : (float array * Model.sense * float) list;
  cost : float array;
}

let lp_gen : lp_instance Gen.t =
  let open Gen in
  let* nvars = int_range 1 6 in
  let* upper = array_repeat nvars (float_range 1.0 10.0) in
  let* point =
    array_repeat nvars (float_range 0.0 1.0) >|= Array.mapi (fun i f -> f *. upper.(i))
  in
  let* nrows = int_range 1 5 in
  let* rows =
    list_repeat nrows
      (let* coefs = array_repeat nvars (float_range (-5.0) 5.0) in
       let lhs =
         Array.fold_left ( +. ) 0.0 (Array.mapi (fun i c -> c *. point.(i)) coefs)
       in
       let* slack = float_range 0.0 5.0 in
       let* sense = oneofl [ Model.Le; Model.Ge ] in
       match sense with
       | Model.Le -> return (coefs, Model.Le, lhs +. slack)
       | Model.Ge -> return (coefs, Model.Ge, lhs -. slack)
       | Model.Eq -> return (coefs, Model.Eq, lhs))
  in
  let* cost = array_repeat nvars (float_range (-10.0) 10.0) in
  return { nvars; upper; point; rows; cost }

let build_lp inst =
  let m = Model.create () in
  let vars =
    Array.init inst.nvars (fun i ->
        Model.add_var m ~upper:inst.upper.(i) (Printf.sprintf "x%d" i))
  in
  List.iter
    (fun (coefs, sense, rhs) ->
      Model.add_constr m
        (Array.to_list (Array.mapi (fun i c -> (c, vars.(i))) coefs))
        sense rhs)
    inst.rows;
  Model.set_objective m
    (Model.Maximize (Array.to_list (Array.mapi (fun i c -> (c, vars.(i))) inst.cost)));
  m

let prop_simplex_feasible_and_dominant =
  QCheck.Test.make ~count:200 ~name:"simplex: optimal, feasible, dominates witness"
    (QCheck.make lp_gen) (fun inst ->
      let m = build_lp inst in
      let s = Simplex.solve m in
      match s.Simplex.status with
      | Simplex.Optimal ->
          Model.check_feasible ~eps:1e-5 m s.Simplex.x
          && s.Simplex.objective
             >= Model.objective_value m inst.point -. 1e-5
      | Simplex.Unbounded -> false (* all variables are boxed *)
      | Simplex.Infeasible -> false (* witness point exists *)
      | Simplex.Iteration_limit -> false)

(* ---- MILP vs exhaustive enumeration --------------------------------- *)

type milp_instance = {
  n : int;
  weights : int array;
  values : int array;
  budget : int;
  exact_count : int option;  (* optional COUNT = c constraint *)
}

let milp_gen : milp_instance Gen.t =
  let open Gen in
  let* n = int_range 1 8 in
  let* weights = array_repeat n (int_range 1 9) in
  let* values = array_repeat n (int_range 0 9) in
  let* budget = int_range 1 30 in
  let* exact_count = opt (int_range 1 4) in
  return { n; weights; values; budget; exact_count }

let prop_milp_matches_enumeration =
  QCheck.Test.make ~count:150 ~name:"milp: equals exhaustive optimum"
    (QCheck.make milp_gen) (fun inst ->
      let m = Model.create () in
      let vars =
        Array.init inst.n (fun i ->
            Model.add_var m ~integer:true ~upper:1.0 (Printf.sprintf "v%d" i))
      in
      Model.add_constr m
        (Array.to_list
           (Array.mapi (fun i v -> (float_of_int inst.weights.(i), v)) vars))
        Model.Le (float_of_int inst.budget);
      (match inst.exact_count with
      | Some c ->
          Model.add_constr m
            (Array.to_list (Array.map (fun v -> (1.0, v)) vars))
            Model.Eq (float_of_int c)
      | None -> ());
      Model.set_objective m
        (Model.Maximize
           (Array.to_list
              (Array.mapi (fun i v -> (float_of_int inst.values.(i), v)) vars)));
      let s = Milp.solve m in
      (* enumeration reference *)
      let best = ref None in
      for mask = 0 to (1 lsl inst.n) - 1 do
        let w = ref 0 and v = ref 0 and cnt = ref 0 in
        for i = 0 to inst.n - 1 do
          if mask land (1 lsl i) <> 0 then begin
            w := !w + inst.weights.(i);
            v := !v + inst.values.(i);
            incr cnt
          end
        done;
        let count_ok =
          match inst.exact_count with Some c -> !cnt = c | None -> true
        in
        if !w <= inst.budget && count_ok then
          match !best with
          | Some b when b >= !v -> ()
          | _ -> best := Some !v
      done;
      match (!best, s.Milp.status) with
      | None, Milp.Infeasible -> true
      | Some b, Milp.Optimal -> Float.abs (s.Milp.objective -. float_of_int b) < 1e-6
      | _ -> false)

(* ---- package-level properties over random tables -------------------- *)

type table_instance = {
  rows : (int * int) list;  (* (v, w) per tuple *)
  lo : int;
  hi : int;
  count_max : int;
}

let table_gen : table_instance Gen.t =
  let open Gen in
  let* n = int_range 1 9 in
  let* rows = list_repeat n (pair (int_range 0 20) (int_range 1 9)) in
  let* lo = int_range 0 25 in
  let* span = int_range 0 20 in
  let* count_max = int_range 1 5 in
  return { rows; lo; hi = lo + span; count_max }

let db_of_table inst =
  let schema =
    Schema.make
      [
        { Schema.name = "v"; ty = Value.T_int };
        { Schema.name = "w"; ty = Value.T_int };
      ]
  in
  let rows =
    List.map (fun (v, w) -> [| Value.Int v; Value.Int w |]) inst.rows
  in
  let db = Pb_sql.Database.create () in
  Pb_sql.Database.put db "t" (Relation.create schema rows);
  db

let query_of_table inst =
  Parser.parse
    (Printf.sprintf
       "SELECT PACKAGE(t) AS p FROM t SUCH THAT SUM(p.w) BETWEEN %d AND %d \
        AND COUNT(*) <= %d MAXIMIZE SUM(p.v)"
       inst.lo inst.hi inst.count_max)

let prop_pruning_sound =
  QCheck.Test.make ~count:200 ~name:"pruning: no valid package outside bounds"
    (QCheck.make table_gen) (fun inst ->
      let db = db_of_table inst in
      let query = query_of_table inst in
      let c = Coeffs.make db query in
      let b = Pruning.cardinality_bounds c in
      let n = List.length inst.rows in
      let ok = ref true in
      for mask = 0 to (1 lsl n) - 1 do
        let mult = Array.init n (fun i -> (mask lsr i) land 1) in
        if Coeffs.check_mult c mult then begin
          let card = Array.fold_left ( + ) 0 mult in
          if card < b.Pruning.lo || card > b.Pruning.hi then ok := false
        end
      done;
      !ok)

let prop_compiled_check_matches_oracle =
  QCheck.Test.make ~count:100 ~name:"compiled check = semantic oracle"
    (QCheck.make table_gen) (fun inst ->
      let db = db_of_table inst in
      let query = query_of_table inst in
      let c = Coeffs.make db query in
      let n = List.length inst.rows in
      let ok = ref true in
      for mask = 0 to (1 lsl n) - 1 do
        let mult = Array.init n (fun i -> (mask lsr i) land 1) in
        let pkg = Coeffs.package_of_mult c mult in
        if Coeffs.check_mult c mult <> Semantics.is_valid ~db query pkg then
          ok := false
      done;
      !ok)

let prop_ilp_equals_brute_force =
  QCheck.Test.make ~count:100 ~name:"ilp optimum = brute-force optimum"
    (QCheck.make table_gen) (fun inst ->
      let db = db_of_table inst in
      let query = query_of_table inst in
      let bf =
        Pb_core.Engine.run
          ~strategy:(Pb_core.Engine.Brute_force { use_pruning = true })
          db query
      in
      let ilp = Pb_core.Engine.run ~strategy:Pb_core.Engine.Ilp db query in
      match (bf.Pb_core.Engine.objective, ilp.Pb_core.Engine.objective) with
      | Some a, Some b -> Float.abs (a -. b) < 1e-6
      | None, None ->
          bf.Pb_core.Engine.package = None && ilp.Pb_core.Engine.package = None
      | _ -> false)

let prop_local_search_valid =
  QCheck.Test.make ~count:60 ~name:"local search answers are oracle-valid"
    (QCheck.make table_gen) (fun inst ->
      let db = db_of_table inst in
      let query = query_of_table inst in
      let r =
        Pb_core.Engine.run
          ~strategy:
            (Pb_core.Engine.Local_search Pb_core.Local_search.default_params)
          db query
      in
      match r.Pb_core.Engine.package with
      | Some pkg -> Semantics.is_valid ~db query pkg
      | None -> true)

(* ---- LIKE vs reference ---------------------------------------------- *)

let rec like_reference pattern s pi si =
  let np = String.length pattern and ns = String.length s in
  if pi = np then si = ns
  else
    match pattern.[pi] with
    | '%' ->
        let rec try_consume k =
          k <= ns
          && (like_reference pattern s (pi + 1) k || try_consume (k + 1))
        in
        try_consume si
    | '_' -> si < ns && like_reference pattern s (pi + 1) (si + 1)
    | c -> si < ns && s.[si] = c && like_reference pattern s (pi + 1) (si + 1)

let like_input_gen =
  let open Gen in
  let pat_char = oneofl [ 'a'; 'b'; '%'; '_' ] in
  let str_char = oneofl [ 'a'; 'b'; 'c' ] in
  pair
    (string_size ~gen:pat_char (int_range 0 8))
    (string_size ~gen:str_char (int_range 0 10))

let prop_like_matches_reference =
  QCheck.Test.make ~count:500 ~name:"LIKE = backtracking reference"
    (QCheck.make like_input_gen) (fun (pattern, s) ->
      Pb_sql.Compile.(like_match_compiled (compile_like pattern) s)
      = like_reference pattern s 0 0)

(* ---- PaQL round-trip on random queries ------------------------------- *)

let paql_gen : string Gen.t =
  let open Gen in
  let agg = oneofl [ "COUNT(*)"; "SUM(p.a)"; "SUM(p.b)"; "AVG(p.a)"; "MIN(p.b)"; "MAX(p.a)" ] in
  let cmp = oneofl [ "<="; ">="; "="; "<"; ">" ] in
  let atom =
    let* a = agg in
    let* c = cmp in
    let* k = int_range 0 100 in
    return (Printf.sprintf "%s %s %d" a c k)
  in
  let clause =
    let* n = int_range 1 3 in
    let* atoms = list_repeat n atom in
    let* connective = oneofl [ " AND "; " OR " ] in
    return (String.concat connective atoms)
  in
  let* where = opt (oneofl [ "t.a > 3"; "t.b <= 5 AND t.a >= 1"; "t.a BETWEEN 1 AND 9" ]) in
  let* such_that = opt clause in
  let* repeat = opt (int_range 0 3) in
  let* objective = opt (oneofl [ "MAXIMIZE SUM(p.a)"; "MINIMIZE SUM(p.b)" ]) in
  let parts =
    [ "SELECT PACKAGE(t) AS p FROM tbl t" ]
    @ (match repeat with Some k -> [ Printf.sprintf "REPEAT %d" k ] | None -> [])
    @ (match where with Some w -> [ "WHERE " ^ w ] | None -> [])
    @ (match such_that with Some s -> [ "SUCH THAT " ^ s ] | None -> [])
    @ match objective with Some o -> [ o ] | None -> []
  in
  return (String.concat " " parts)

let prop_paql_roundtrip =
  QCheck.Test.make ~count:300 ~name:"PaQL print/parse fixpoint"
    (QCheck.make paql_gen) (fun src ->
      let q1 = Parser.parse src in
      let printed = Pb_paql.Ast.to_string q1 in
      let q2 = Parser.parse printed in
      Pb_paql.Ast.to_string q2 = printed)

(* ---- binomial recurrence --------------------------------------------- *)

let prop_binomial_recurrence =
  QCheck.Test.make ~count:200 ~name:"log_binomial Pascal recurrence"
    QCheck.(pair (QCheck.make (Gen.int_range 2 60)) (QCheck.make (Gen.int_range 1 59)))
    (fun (n, k) ->
      QCheck.assume (k < n);
      let lhs = Pb_util.Stats.log_binomial n k in
      let rhs =
        Pb_util.Stats.log_sum_exp
          [
            Pb_util.Stats.log_binomial (n - 1) (k - 1);
            Pb_util.Stats.log_binomial (n - 1) k;
          ]
      in
      Float.abs (lhs -. rhs) < 1e-9)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_simplex_feasible_and_dominant;
      prop_milp_matches_enumeration;
      prop_pruning_sound;
      prop_compiled_check_matches_oracle;
      prop_ilp_equals_brute_force;
      prop_local_search_valid;
      prop_like_matches_reference;
      prop_paql_roundtrip;
      prop_binomial_recurrence;
    ]
