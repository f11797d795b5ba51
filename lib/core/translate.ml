module Analyze = Pb_paql.Analyze
module Ast = Pb_paql.Ast
module Package = Pb_paql.Package
module Model = Pb_lp.Model

type t = { model : Model.t; vars : int array }

let linearizable (c : Coeffs.t) =
  Result.is_ok c.formula
  && match c.objective with None | Some (Some _) -> true | Some None -> false

let strict_eps = 1e-6

(* Σ over tuples of max(coef, 0) * max_mult — an upper bound on the lhs of
   a linear atom, used to size big-M relaxations. *)
let lhs_upper_bound coef max_mult =
  let m = float_of_int max_mult in
  Array.fold_left (fun acc c -> if c > 0.0 then acc +. (c *. m) else acc) 0.0 coef

let lhs_lower_bound coef max_mult =
  let m = float_of_int max_mult in
  Array.fold_left (fun acc c -> if c < 0.0 then acc +. (c *. m) else acc) 0.0 coef

(* Add [terms sense rhs], optionally big-M-relaxed so that it only binds
   when the [indicator] binary equals 1. *)
let rec add_row model ~indicator ~name terms sense rhs ~coef_bounds =
  match indicator with
  | None -> Model.add_constr model ~name terms sense rhs
  | Some z -> (
      let lb, ub = coef_bounds in
      match sense with
      | Model.Le ->
          (* lhs <= rhs + M(1-z), M = ub - rhs *)
          let m = Float.max 0.0 (ub -. rhs) in
          Model.add_constr model ~name ((m, z) :: terms) Model.Le (rhs +. m)
      | Model.Ge ->
          let m = Float.max 0.0 (rhs -. lb) in
          Model.add_constr model ~name ((-.m, z) :: terms) Model.Ge (rhs -. m)
      | Model.Eq ->
          add_row model ~indicator ~name terms Model.Le rhs ~coef_bounds;
          add_row model ~indicator ~name terms Model.Ge rhs ~coef_bounds)

let count_terms vars =
  Array.to_list (Array.map (fun v -> (1.0, v)) vars)

let linear_terms coef vars =
  let out = ref [] in
  Array.iteri
    (fun i c -> if c <> 0.0 then out := (c, vars.(i)) :: !out)
    coef;
  !out

let cmp_to_row cmp rhs =
  match cmp with
  | Analyze.Le -> (Model.Le, rhs)
  | Analyze.Lt -> (Model.Le, rhs -. strict_eps)
  | Analyze.Ge -> (Model.Ge, rhs)
  | Analyze.Gt -> (Model.Ge, rhs +. strict_eps)

let fresh_name =
  let counter = ref 0 in
  fun prefix ->
    incr counter;
    Printf.sprintf "%s%d" prefix !counter

let add_atom (c : Coeffs.t) model vars ~indicator atom =
  let max_mult = c.max_mult in
  let mf = float_of_int max_mult in
  let count_bounds = (0.0, mf *. float_of_int c.n) in
  match atom with
  | Coeffs.C_linear { coef; cmp; rhs; has_sum } ->
      let sense, row_rhs = cmp_to_row cmp rhs in
      add_row model ~indicator ~name:(fresh_name "lin") (linear_terms coef vars)
        sense row_rhs
        ~coef_bounds:(lhs_lower_bound coef max_mult, lhs_upper_bound coef max_mult);
      (* SQL NULL semantics: a SUM-bearing atom rejects the empty package. *)
      if has_sum then
        add_row model ~indicator ~name:(fresh_name "lin_nonempty")
          (count_terms vars) Model.Ge 1.0 ~coef_bounds:count_bounds
  | Coeffs.C_avg { arg; cmp; rhs } ->
      (* AVG(e) cmp c  ==>  Σ (e_i - c) x_i cmp 0, with COUNT >= 1. *)
      let shifted = Array.map (fun v -> v -. rhs) arg in
      let sense, row_rhs = cmp_to_row cmp 0.0 in
      add_row model ~indicator ~name:(fresh_name "avg")
        (linear_terms shifted vars) sense row_rhs
        ~coef_bounds:
          (lhs_lower_bound shifted max_mult, lhs_upper_bound shifted max_mult);
      add_row model ~indicator ~name:(fresh_name "avg_nonempty")
        (count_terms vars) Model.Ge 1.0 ~coef_bounds:count_bounds
  | Coeffs.C_ext { maximum; arg; cmp; rhs } -> (
      let witness_side =
        (* MIN <= c and MAX >= c need one witness tuple; the other two
           combinations restrict every selected tuple. *)
        match (maximum, cmp) with
        | false, (Analyze.Le | Analyze.Lt) -> true
        | true, (Analyze.Ge | Analyze.Gt) -> true
        | _ -> false
      in
      let tuple_ok v =
        match cmp with
        | Analyze.Le -> v <= rhs
        | Analyze.Lt -> v < rhs
        | Analyze.Ge -> v >= rhs
        | Analyze.Gt -> v > rhs
      in
      if witness_side then begin
        let witnesses = ref [] in
        Array.iteri
          (fun i v -> if tuple_ok v then witnesses := (1.0, vars.(i)) :: !witnesses)
          arg;
        (* Σ_{witness} x_i >= 1; with no witnesses the atom is
           unsatisfiable (0 >= 1). *)
        add_row model ~indicator ~name:(fresh_name "witness") !witnesses
          Model.Ge 1.0
          ~coef_bounds:(0.0, mf *. float_of_int (List.length !witnesses))
      end
      else begin
        (* Every selected tuple must individually satisfy the bound:
           x_i = 0 for violators (<= 0 relaxed by the indicator). *)
        Array.iteri
          (fun i v ->
            if not (tuple_ok v) then
              add_row model ~indicator ~name:(fresh_name "forbid")
                [ (1.0, vars.(i)) ]
                Model.Le 0.0 ~coef_bounds:(0.0, mf))
          arg;
        add_row model ~indicator ~name:(fresh_name "ext_nonempty")
          (count_terms vars) Model.Ge 1.0 ~coef_bounds:count_bounds
      end)

let rec add_formula (c : Coeffs.t) model vars ~indicator f =
  match f with
  | Coeffs.C_true -> ()
  | Coeffs.C_false ->
      (* Unsatisfiable (under the indicator): 0 >= 1 (relaxed). *)
      add_row model ~indicator ~name:(fresh_name "false") [] Model.Ge 1.0
        ~coef_bounds:(0.0, 0.0)
  | Coeffs.C_atom a -> add_atom c model vars ~indicator a
  | Coeffs.C_and fs -> List.iter (add_formula c model vars ~indicator) fs
  | Coeffs.C_or fs ->
      let branch_indicators =
        List.map
          (fun branch ->
            let z =
              Model.add_var model ~integer:true ~lower:0.0 ~upper:1.0
                (fresh_name "z")
            in
            add_formula c model vars ~indicator:(Some z) branch;
            z)
          fs
      in
      let terms = List.map (fun z -> (1.0, z)) branch_indicators in
      (match indicator with
      | None -> Model.add_constr model ~name:(fresh_name "or") terms Model.Ge 1.0
      | Some z ->
          (* At least one branch must hold when the parent holds:
             Σ z_k >= z_parent. *)
          Model.add_constr model ~name:(fresh_name "or")
            ((-1.0, z) :: terms)
            Model.Ge 0.0)

type objective = No_obj | Linear of Ast.direction * float array

let objective_of_coeffs (c : Coeffs.t) =
  match c.objective with
  | None -> Ok No_obj
  | Some None -> Error "objective is not linearizable"
  | Some (Some (dir, coef)) -> Ok (Linear (dir, coef))

let set_objective model vars = function
  | No_obj -> Model.set_objective model (Model.Maximize [])
  | Linear (Ast.Maximize, coef) -> Model.set_objective model (Model.Maximize (linear_terms coef vars))
  | Linear (Ast.Minimize, coef) -> Model.set_objective model (Model.Minimize (linear_terms coef vars))

let build (c : Coeffs.t) =
  let model = Model.create () in
  let mf = float_of_int c.max_mult in
  let vars =
    Array.init c.n (fun i ->
        Model.add_var model ~integer:true ~lower:0.0 ~upper:mf
          (Printf.sprintf "x%d" i))
  in
  (match c.formula with
  | Ok f -> add_formula c model vars ~indicator:None f
  | Error reason ->
      failwith ("Translate.build: SUCH THAT is not linearizable: " ^ reason));
  (match objective_of_coeffs c with
  | Ok objective -> set_objective model vars objective
  | Error reason -> failwith ("Translate.build: " ^ reason));
  { model; vars }

let package_of_solution (c : Coeffs.t) t x =
  let mult =
    Array.map
      (fun v -> int_of_float (Float.round x.(v)))
      t.vars
  in
  Coeffs.package_of_mult c mult

let exclude t pkg =
  let terms = ref [] and ones = ref 0 in
  Array.iteri
    (fun i v ->
      if Package.multiplicity pkg i > 0 then begin
        terms := (-1.0, v) :: !terms;
        incr ones
      end
      else terms := (1.0, v) :: !terms)
    t.vars;
  Model.add_constr t.model !terms Model.Ge (1.0 -. float_of_int !ones)

(* ---- Rows over an explicit column set ------------------------------ *)

type row = { coef : float array; sense : Model.sense; rhs : float; nonempty : bool }

let rows_of_formula (c : Coeffs.t) =
  let rec go acc = function
    | Coeffs.C_true -> Ok acc
    | Coeffs.C_false ->
        (* constant-false SUCH THAT: one unsatisfiable row *)
        Ok ({ coef = Array.make c.n 0.0; sense = Model.Ge; rhs = 1.0; nonempty = false } :: acc)
    | Coeffs.C_atom (Coeffs.C_linear { coef; cmp; rhs; has_sum }) ->
        let sense, rhs = cmp_to_row cmp rhs in
        Ok ({ coef; sense; rhs; nonempty = has_sum } :: acc)
    | Coeffs.C_atom (Coeffs.C_avg { arg; cmp; rhs }) ->
        (* AVG(e) cmp c  ==>  Σ (e_i - c)·x_i cmp 0, empty rejected. *)
        let shifted = Array.map (fun v -> v -. rhs) arg in
        let sense, rhs = cmp_to_row cmp 0.0 in
        Ok ({ coef = shifted; sense; rhs; nonempty = true } :: acc)
    | Coeffs.C_atom (Coeffs.C_ext _) -> Error "MIN/MAX constraints need per-tuple witnesses"
    | Coeffs.C_and fs ->
        List.fold_left (fun acc f -> Result.bind acc (fun a -> go a f)) (Ok acc) fs
    | Coeffs.C_or _ -> Error "disjunctive constraints"
  in
  match c.formula with
  | Error reason -> Error ("SUCH THAT is not linearizable: " ^ reason)
  | Ok f -> Result.map List.rev (go [] f)

(* Laid out as [build] lays out its rows: each row's and the objective's
   terms by descending column, the nonempty row last. *)
let of_columns ~upper ~coefs ~senses ~rhs ~nonempty objective =
  let model = Model.create () in
  let ncols = Array.length upper in
  let vars =
    Array.init ncols (fun j ->
        Model.add_var model ~integer:true ~lower:0.0 ~upper:upper.(j) (Printf.sprintf "x%d" j))
  in
  Array.iteri
    (fun ri coef ->
      Model.add_constr model ~name:(Printf.sprintf "row%d" ri) (linear_terms coef vars)
        senses.(ri) rhs.(ri))
    coefs;
  if nonempty then Model.add_constr model ~name:"nonempty" (count_terms vars) Model.Ge 1.0;
  set_objective model vars objective;
  model
