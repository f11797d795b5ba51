module Analyze = Pb_paql.Analyze
module Ast = Pb_paql.Ast
module Package = Pb_paql.Package
module Semantics = Pb_paql.Semantics
module Relation = Pb_relation.Relation
module Schema = Pb_relation.Schema
module Value = Pb_relation.Value

let src = Logs.Src.create "pb.core" ~doc:"PackageBuilder evaluation engine"

module Log = (val Logs.src_log src : Logs.LOG)

type compiled_atom =
  | C_linear of {
      coef : float array;
      cmp : Analyze.cmp;
      rhs : float;
      has_sum : bool;
    }
  | C_avg of { arg : float array; cmp : Analyze.cmp; rhs : float }
  | C_ext of {
      maximum : bool;
      arg : float array;
      cmp : Analyze.cmp;
      rhs : float;
    }

type compiled_formula =
  | C_true
  | C_false
  | C_atom of compiled_atom
  | C_and of compiled_formula list
  | C_or of compiled_formula list

type t = {
  db : Pb_sql.Database.t;
  query : Ast.t;
  candidates : Relation.t;
  batch : Semantics.batch option;
  n : int;
  max_mult : int;
  formula : (compiled_formula, string) result;
  objective : (Ast.direction * float array) option option;
}

(* Package-level expression arguments reference the package alias; the
   candidate relation is qualified by the input alias, so evaluate against
   a re-qualified view. *)
let tuple_values_of ?batch ~pkg_schema ~rows expr =
  let by_rows () =
    (* One compile per aggregate argument, one closure call per tuple. No
       database: validation arguments are row-local, and a subquery here
       raises its "requires a database context" error. *)
    let eval_row = Pb_sql.Compile.expr pkg_schema expr in
    Array.map
      (fun row ->
        match Value.to_float (eval_row row) with
        | Some x -> x
        | None ->
            Log.warn (fun m ->
                m "non-numeric aggregate argument %s; treating as 0"
                  (Pb_sql.Ast.expr_to_string expr));
            0.0)
      rows
  in
  (* Columnar candidates: run the argument as a batch kernel (coefficient
     extraction is the hot loop of [make] on large inputs). Kernel floats
     are the same float image the row path computes, so the vectors are
     bit-identical; the kernel bails (e.g. string-valued arguments,
     subqueries) back to the per-row closure. *)
  match batch with
  | Some b -> (
      match Semantics.batch_values b ~schema:pkg_schema expr with
      | Some vals -> vals
      | None -> by_rows ())
  | None -> by_rows ()

(* [values e] is the per-candidate vector of aggregate argument [e]. *)
let compile_atom ~values ~n = function
  | Analyze.Linear { terms; cmp; rhs } ->
      let coef = Array.make n 0.0 in
      let has_sum = ref false in
      List.iter
        (fun (c, term) ->
          match term with
          | Analyze.Count_term ->
              Array.iteri (fun i x -> coef.(i) <- x +. c) coef
          | Analyze.Sum_term e ->
              has_sum := true;
              Array.iteri
                (fun i x -> coef.(i) <- coef.(i) +. (c *. x))
                (values e))
        terms;
      C_linear { coef; cmp; rhs; has_sum = !has_sum }
  | Analyze.Avg_atom { arg; cmp; rhs } -> C_avg { arg = values arg; cmp; rhs }
  | Analyze.Extremum { maximum; arg; cmp; rhs } ->
      C_ext { maximum; arg = values arg; cmp; rhs }

let rec compile_formula ~values ~n = function
  | Analyze.True -> C_true
  | Analyze.False -> C_false
  | Analyze.Atom a -> C_atom (compile_atom ~values ~n a)
  | Analyze.And fs -> C_and (List.map (compile_formula ~values ~n) fs)
  | Analyze.Or fs -> C_or (List.map (compile_formula ~values ~n) fs)

let make db (query : Ast.t) =
  (match Analyze.validate_query query with
  | Ok () -> ()
  | Error msg -> failwith ("ill-formed PaQL query: " ^ msg));
  let batch = Semantics.candidates_batch db query in
  let candidates =
    match batch with
    | Some b -> Semantics.batch_candidates b
    | None -> Semantics.candidates db query
  in
  let n = Relation.cardinality candidates in
  let rows = Relation.rows candidates in
  let pkg_schema =
    Schema.qualify query.package_alias (Relation.schema candidates)
  in
  (* Each distinct aggregate argument is extracted once per [make] (a
     BETWEEN linearizes into two atoms over the same argument, and the
     objective often repeats a constraint's). The vectors are only read
     from here on, so atoms may share one. *)
  let memo = ref [] in
  let values expr =
    match List.assoc_opt expr !memo with
    | Some v -> v
    | None ->
        let v = tuple_values_of ?batch ~pkg_schema ~rows expr in
        memo := (expr, v) :: !memo;
        v
  in
  let formula =
    match query.such_that with
    | None -> Ok C_true
    | Some e -> (
        match Analyze.linearize e with
        | Ok f -> Ok (compile_formula ~values ~n f)
        | Error reason -> Error reason)
  in
  let objective =
    match query.objective with
    | None -> None
    | Some (dir, e) -> (
        match Analyze.linearize_objective e with
        | Error _ -> Some None
        | Ok terms ->
            let coef = Array.make n 0.0 in
            List.iter
              (fun (c, term) ->
                match term with
                | Analyze.Count_term ->
                    Array.iteri (fun i x -> coef.(i) <- x +. c) coef
                | Analyze.Sum_term arg ->
                    Array.iteri
                      (fun i x -> coef.(i) <- coef.(i) +. (c *. x))
                      (values arg))
              terms;
            Some (Some (dir, coef)))
  in
  { db; query; candidates; batch; n; max_mult = Ast.max_multiplicity query;
    formula; objective }

let tuple_values t expr =
  let pkg_schema =
    Schema.qualify t.query.package_alias (Relation.schema t.candidates)
  in
  tuple_values_of ?batch:t.batch ~pkg_schema
    ~rows:(Relation.rows t.candidates) expr

let atom_holds atom mult =
  let n = Array.length mult in
  match atom with
  | C_linear { coef; cmp; rhs; has_sum } ->
      let total = ref 0.0 and any = ref false in
      for i = 0 to n - 1 do
        if mult.(i) > 0 then begin
          any := true;
          total := !total +. (float_of_int mult.(i) *. coef.(i))
        end
      done;
      (* SUM over the empty package is NULL in SQL: unsatisfied. *)
      ((not has_sum) || !any) && Analyze.eval_cmp cmp !total rhs
  | C_avg { arg; cmp; rhs } ->
      let total = ref 0.0 and count = ref 0 in
      for i = 0 to n - 1 do
        if mult.(i) > 0 then begin
          total := !total +. (float_of_int mult.(i) *. arg.(i));
          count := !count + mult.(i)
        end
      done;
      !count > 0 && Analyze.eval_cmp cmp (!total /. float_of_int !count) rhs
  | C_ext { maximum; arg; cmp; rhs } ->
      let best = ref nan and seen = ref false in
      for i = 0 to n - 1 do
        if mult.(i) > 0 then
          if not !seen then begin
            best := arg.(i);
            seen := true
          end
          else if maximum then best := Float.max !best arg.(i)
          else best := Float.min !best arg.(i)
      done;
      !seen && Analyze.eval_cmp cmp !best rhs

let rec formula_holds f mult =
  match f with
  | C_true -> true
  | C_false -> false
  | C_atom a -> atom_holds a mult
  | C_and fs -> List.for_all (fun f -> formula_holds f mult) fs
  | C_or fs -> List.exists (fun f -> formula_holds f mult) fs

let check_mult t mult =
  Array.for_all (fun m -> m <= t.max_mult && m >= 0) mult
  &&
  match t.formula with
  | Ok f -> formula_holds f mult
  | Error _ ->
      Semantics.is_valid ~db:t.db t.query
        (Package.of_multiplicities t.candidates ~alias:t.query.package_alias
           mult)

let package_of_mult t mult =
  Package.of_multiplicities t.candidates ~alias:t.query.package_alias mult

let check t pkg = check_mult t (Package.multiplicities pkg)

let objective_of_mult t mult =
  match t.objective with
  | None | Some None -> None
  | Some (Some (_, coef)) ->
      let total = ref 0.0 and any = ref false in
      Array.iteri
        (fun i m ->
          if m > 0 then begin
            any := true;
            total := !total +. (float_of_int m *. coef.(i))
          end)
        mult;
      if !any then Some !total else None
