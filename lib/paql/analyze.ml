module Sql = Pb_sql.Ast
module Value = Pb_relation.Value

type cmp = Le | Ge | Lt | Gt

type term = Count_term | Sum_term of Sql.expr

type atom =
  | Linear of { terms : (float * term) list; cmp : cmp; rhs : float }
  | Avg_atom of { arg : Sql.expr; cmp : cmp; rhs : float }
  | Extremum of { maximum : bool; arg : Sql.expr; cmp : cmp; rhs : float }

type formula =
  | True
  | False
  | Atom of atom
  | And of formula list
  | Or of formula list

let cmp_to_string = function Le -> "<=" | Ge -> ">=" | Lt -> "<" | Gt -> ">"

let eval_cmp cmp lhs rhs =
  match cmp with
  | Le -> lhs <= rhs
  | Ge -> lhs >= rhs
  | Lt -> lhs < rhs
  | Gt -> lhs > rhs

(* Negation: NOT (a <= b) is a > b. *)
let flip_cmp = function Le -> Gt | Ge -> Lt | Lt -> Ge | Gt -> Le

(* Division by a negative: k*a <= b with k < 0 is a >= b/k. *)
let mirror_cmp = function Le -> Ge | Ge -> Le | Lt -> Gt | Gt -> Lt

(* ---- Linear combinations of aggregates ---------------------------- *)

type agg_ref = A_count | A_sum of Sql.expr | A_avg of Sql.expr | A_min of Sql.expr | A_max of Sql.expr

type combo = { const : float; aggs : (float * agg_ref) list }

let ( let* ) = Result.bind

let const_only c = { const = c; aggs = [] }

let combo_add a b = { const = a.const +. b.const; aggs = a.aggs @ b.aggs }

let combo_scale k c =
  { const = k *. c.const; aggs = List.map (fun (x, a) -> (k *. x, a)) c.aggs }

let rec combo_of_expr (e : Sql.expr) : (combo, string) result =
  match e with
  | Sql.Lit v -> (
      match Value.to_float v with
      | Some x -> Ok (const_only x)
      | None -> Error ("non-numeric literal " ^ Value.to_string v))
  | Sql.Agg (Sql.Count_star, _) -> Ok { const = 0.0; aggs = [ (1.0, A_count) ] }
  | Sql.Agg (Sql.Count, Some _) ->
      (* COUNT(arg) counts non-NULL values; for package evaluation over a
         NULL-free candidate relation it coincides with COUNT over all. *)
      Ok { const = 0.0; aggs = [ (1.0, A_count) ] }
  | Sql.Agg (Sql.Sum, Some arg) -> Ok { const = 0.0; aggs = [ (1.0, A_sum arg) ] }
  | Sql.Agg (Sql.Avg, Some arg) -> Ok { const = 0.0; aggs = [ (1.0, A_avg arg) ] }
  | Sql.Agg (Sql.Min, Some arg) -> Ok { const = 0.0; aggs = [ (1.0, A_min arg) ] }
  | Sql.Agg (Sql.Max, Some arg) -> Ok { const = 0.0; aggs = [ (1.0, A_max arg) ] }
  | Sql.Agg (f, None) -> Error (Sql.agg_to_string f ^ " without argument")
  | Sql.Unary_minus e ->
      let* c = combo_of_expr e in
      Ok (combo_scale (-1.0) c)
  | Sql.Binop (Sql.Add, a, b) ->
      let* ca = combo_of_expr a in
      let* cb = combo_of_expr b in
      Ok (combo_add ca cb)
  | Sql.Binop (Sql.Sub, a, b) ->
      let* ca = combo_of_expr a in
      let* cb = combo_of_expr b in
      Ok (combo_add ca (combo_scale (-1.0) cb))
  | Sql.Binop (Sql.Mul, a, b) -> (
      let* ca = combo_of_expr a in
      let* cb = combo_of_expr b in
      match (ca.aggs, cb.aggs) with
      | [], _ -> Ok (combo_scale ca.const cb)
      | _, [] -> Ok (combo_scale cb.const ca)
      | _ -> Error "product of aggregates is not linear")
  | Sql.Binop (Sql.Div, a, b) -> (
      let* ca = combo_of_expr a in
      let* cb = combo_of_expr b in
      match cb.aggs with
      | [] when cb.const <> 0.0 -> Ok (combo_scale (1.0 /. cb.const) ca)
      | [] -> Error "division by zero in global constraint"
      | _ -> Error "division by an aggregate is not linear")
  | Sql.Col c -> Error ("bare column " ^ c ^ " in a global constraint")
  | e -> Error ("non-linear fragment: " ^ Sql.expr_to_string e)

(* Classify [lhs cmp rhs] (both combos) into an atom. *)
let atom_of_combos lhs cmp rhs =
  (* Move everything to the left: terms cmp rhs_const. *)
  let moved = combo_add lhs (combo_scale (-1.0) rhs) in
  let rhs_const = -.moved.const in
  let has_special =
    List.exists
      (fun (_, a) ->
        match a with A_avg _ | A_min _ | A_max _ -> true | _ -> false)
      moved.aggs
  in
  if not has_special then
    let terms =
      List.map
        (fun (c, a) ->
          match a with
          | A_count -> (c, Count_term)
          | A_sum e -> (c, Sum_term e)
          | A_avg _ | A_min _ | A_max _ -> assert false)
        moved.aggs
    in
    if terms = [] then
      (* Constant comparison: decide now. *)
      Ok (if eval_cmp cmp 0.0 rhs_const then `Const true else `Const false)
    else Ok (`Atom (Linear { terms; cmp; rhs = rhs_const }))
  else
    match moved.aggs with
    | [ (coef, special) ] when coef <> 0.0 ->
        let rhs = rhs_const /. coef in
        let cmp = if coef > 0.0 then cmp else mirror_cmp cmp in
        (match special with
        | A_avg arg -> Ok (`Atom (Avg_atom { arg; cmp; rhs }))
        | A_min arg -> Ok (`Atom (Extremum { maximum = false; arg; cmp; rhs }))
        | A_max arg -> Ok (`Atom (Extremum { maximum = true; arg; cmp; rhs }))
        | A_count | A_sum _ -> assert false)
    | _ -> Error "AVG/MIN/MAX may not be combined with other aggregates"

let comparison lhs cmp rhs negated =
  let cmp = if negated then flip_cmp cmp else cmp in
  let* l = combo_of_expr lhs in
  let* r = combo_of_expr rhs in
  let* a = atom_of_combos l cmp r in
  match a with
  | `Const true -> Ok True
  | `Const false -> Ok False
  | `Atom a -> Ok (Atom a)

let rec linearize_neg negated (e : Sql.expr) : (formula, string) result =
  match e with
  | Sql.Lit (Value.Bool b) ->
      Ok (if b <> negated then True else False)
  | Sql.Not e -> linearize_neg (not negated) e
  | Sql.Binop (Sql.And, a, b) ->
      let* fa = linearize_neg negated a in
      let* fb = linearize_neg negated b in
      Ok (if negated then Or [ fa; fb ] else And [ fa; fb ])
  | Sql.Binop (Sql.Or, a, b) ->
      let* fa = linearize_neg negated a in
      let* fb = linearize_neg negated b in
      Ok (if negated then And [ fa; fb ] else Or [ fa; fb ])
  | Sql.Binop (Sql.Le, a, b) -> comparison a Le b negated
  | Sql.Binop (Sql.Lt, a, b) -> comparison a Lt b negated
  | Sql.Binop (Sql.Ge, a, b) -> comparison a Ge b negated
  | Sql.Binop (Sql.Gt, a, b) -> comparison a Gt b negated
  | Sql.Binop (Sql.Eq, a, b) ->
      if negated then
        let* lt = comparison a Lt b false in
        let* gt = comparison a Gt b false in
        Ok (Or [ lt; gt ])
      else
        let* le = comparison a Le b false in
        let* ge = comparison a Ge b false in
        Ok (And [ le; ge ])
  | Sql.Binop (Sql.Neq, a, b) -> linearize_neg (not negated) (Sql.Binop (Sql.Eq, a, b))
  | Sql.Between (e, lo, hi) ->
      if negated then
        let* below = comparison e Lt lo false in
        let* above = comparison e Gt hi false in
        Ok (Or [ below; above ])
      else
        let* ge = comparison e Ge lo false in
        let* le = comparison e Le hi false in
        Ok (And [ ge; le ])
  | e -> Error ("non-linearizable global constraint: " ^ Sql.expr_to_string e)

(* Collapse True/False through the Boolean structure so constant-foldable
   inputs yield the canonical True/False. *)
let rec simplify = function
  | And fs ->
      let fs = List.map simplify fs in
      if List.mem False fs then False
      else (
        match List.filter (fun f -> f <> True) fs with
        | [] -> True
        | [ f ] -> f
        | fs -> And fs)
  | Or fs ->
      let fs = List.map simplify fs in
      if List.mem True fs then True
      else (
        match List.filter (fun f -> f <> False) fs with
        | [] -> False
        | [ f ] -> f
        | fs -> Or fs)
  | (True | False | Atom _) as f -> f

let linearize e = Result.map simplify (linearize_neg false e)

let linearize_objective e =
  let* c = combo_of_expr e in
  let* terms =
    List.fold_left
      (fun acc (coef, a) ->
        let* acc = acc in
        match a with
        | A_count -> Ok ((coef, Count_term) :: acc)
        | A_sum arg -> Ok ((coef, Sum_term arg) :: acc)
        | A_avg _ | A_min _ | A_max _ ->
            Error "AVG/MIN/MAX objectives are not linear")
      (Ok []) c.aggs
  in
  (* The constant offset does not affect the argmax; drop it. *)
  Ok (List.rev terms)

(* ---- Well-formedness checks --------------------------------------- *)

let rec iter_expr f (e : Sql.expr) =
  f e;
  match e with
  | Sql.Lit _ | Sql.Col _ -> ()
  | Sql.Unary_minus x | Sql.Not x | Sql.Is_null (x, _) | Sql.Like (x, _, _) ->
      iter_expr f x
  | Sql.Binop (_, a, b) -> iter_expr f a; iter_expr f b
  | Sql.Between (a, b, c) -> iter_expr f a; iter_expr f b; iter_expr f c
  | Sql.In_list (x, xs, _) -> iter_expr f x; List.iter (iter_expr f) xs
  | Sql.In_query (x, _, _) -> iter_expr f x
  | Sql.Exists _ -> ()
  | Sql.Agg (_, Some x) -> iter_expr f x
  | Sql.Agg (_, None) -> ()
  | Sql.Func (_, xs) -> List.iter (iter_expr f) xs
  | Sql.Case (branches, default) ->
      List.iter
        (fun (c, e) ->
          iter_expr f c;
          iter_expr f e)
        branches;
      Option.iter (iter_expr f) default

let qualifier name =
  match String.index_opt name '.' with
  | Some i -> Some (String.sub name 0 i)
  | None -> None

let check_base_constraint (q : Ast.t) =
  match q.where with
  | None -> Ok ()
  | Some e -> (
      let bad = ref None in
      iter_expr
        (fun node ->
          if !bad = None then
            match node with
            | Sql.Agg _ -> bad := Some "aggregate in WHERE (use SUCH THAT)"
            | Sql.Col name -> (
                match qualifier name with
                | Some qual
                  when qual <> q.input_alias
                       && qual <> String.lowercase_ascii q.input_relation ->
                    bad :=
                      Some
                        (Printf.sprintf
                           "WHERE references %s, but base constraints may \
                            only use the input alias %s"
                           name q.input_alias)
                | _ -> ())
            | _ -> ())
        e;
      match !bad with None -> Ok () | Some msg -> Error msg)

let check_global_constraint (q : Ast.t) =
  let check_expr e =
    let bad = ref None in
    iter_expr
      (fun node ->
        if !bad = None then
          match node with
          | Sql.Col name -> (
              match qualifier name with
              | Some qual when qual <> q.package_alias ->
                  bad :=
                    Some
                      (Printf.sprintf
                         "global constraint references %s, but package \
                          columns are qualified by %s"
                         name q.package_alias)
              | _ -> ())
          | _ -> ())
      e;
    !bad
  in
  let exprs =
    Option.to_list q.such_that
    @ match q.objective with Some (_, e) -> [ e ] | None -> []
  in
  match List.find_map check_expr exprs with
  | Some msg -> Error msg
  | None -> Ok ()

let validate_query q =
  let* () = check_base_constraint q in
  check_global_constraint q

(* ---- Constraint-attribute extraction ------------------------------ *)

let aggregate_arguments (q : Ast.t) =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let visit e =
    iter_expr
      (fun node ->
        match node with
        | Sql.Agg (_, Some arg) ->
            let key = Sql.expr_to_string arg in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              out := arg :: !out
            end
        | _ -> ())
      e
  in
  Option.iter visit q.such_that;
  (match q.objective with Some (_, e) -> visit e | None -> ());
  List.rev !out
