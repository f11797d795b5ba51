module Ast = Pb_paql.Ast
module Package = Pb_paql.Package
module Semantics = Pb_paql.Semantics
module Coeffs = Pb_core.Coeffs
module Model = Pb_lp.Model
module Milp = Pb_lp.Milp
module Value = Pb_relation.Value
module Schema = Pb_relation.Schema
module Relation = Pb_relation.Relation
module Prng = Pb_util.Prng

type t = {
  db : Pb_sql.Database.t;
  query : Ast.t;
  coeffs : Coeffs.t;
  rng : Prng.t;
  current : Package.t;
  history : Package.t list;  (* most recent first, includes current *)
}

let start ?(seed = 11) db query =
  let coeffs = Coeffs.make db query in
  let result = Pb_core.Engine.run_coeffs db coeffs in
  match result.Pb_core.Engine.package with
  | None -> Error "query has no valid package"
  | Some pkg ->
      Ok
        {
          db;
          query;
          coeffs;
          rng = Prng.create seed;
          current = pkg;
          history = [ pkg ];
        }

let current t = t.current

(* Solver-based resample: pin kept tuples via lower bounds, exclude every
   package in the history with a no-good cut, re-solve. Binary queries
   only (no REPEAT) — cuts are binary. *)
let resample_ilp t ~keep =
  let c = t.coeffs in
  let translated = Pb_core.Translate.build c in
  let model = translated.Pb_core.Translate.model in
  let vars = translated.Pb_core.Translate.vars in
  List.iter
    (fun i ->
      let m = float_of_int (Package.multiplicity t.current i) in
      if m > 0.0 then
        let _, hi = Model.bounds model vars.(i) in
        Model.set_bounds model vars.(i) m hi)
    keep;
  List.iter (Pb_core.Translate.exclude translated) t.history;
  let sol = Milp.solve ~gov:(Pb_util.Gov.create ~milp_nodes:50_000 ()) model in
  match sol.Milp.status with
  | Milp.Optimal | Milp.Feasible when Array.length sol.Milp.x > 0 ->
      let pkg = Pb_core.Translate.package_of_solution c translated sol.Milp.x in
      if Semantics.is_valid ~db:t.db t.query pkg then Some pkg else None
  | _ -> None

(* Randomized resample for non-linearizable queries: replace unkept
   tuples at random and keep the first unseen valid package. *)
let resample_random t ~keep =
  let c = t.coeffs in
  let keep_set = List.sort_uniq compare keep in
  let is_kept i = List.mem i keep_set in
  let base_mult = Package.multiplicities t.current in
  let seen_mults = List.map Package.multiplicities t.history in
  let attempt () =
    let mult = Array.copy base_mult in
    (* Drop unkept tuples, then refill to the same cardinality. *)
    let removed = ref 0 in
    Array.iteri
      (fun i m ->
        if m > 0 && not (is_kept i) then begin
          removed := !removed + m;
          mult.(i) <- 0
        end)
      mult;
    let attempts = ref 0 in
    while !removed > 0 && !attempts < 50 * (!removed + 1) do
      incr attempts;
      let i = Prng.int t.rng c.Coeffs.n in
      if mult.(i) < c.Coeffs.max_mult then begin
        mult.(i) <- mult.(i) + 1;
        decr removed
      end
    done;
    if !removed > 0 then None
    else if List.exists (fun prev -> prev = mult) seen_mults then None
    else if Coeffs.check_mult c mult then Some (Coeffs.package_of_mult c mult)
    else None
  in
  let rec try_n k = if k = 0 then None else
    match attempt () with Some pkg -> Some pkg | None -> try_n (k - 1)
  in
  try_n 200

let keep_and_resample t ~keep =
  let fresh =
    if Pb_core.Translate.linearizable t.coeffs && t.coeffs.Coeffs.max_mult = 1 then
      resample_ilp t ~keep
    else resample_random t ~keep
  in
  match fresh with
  | Some pkg -> ({ t with current = pkg; history = pkg :: t.history }, `Fresh)
  | None -> (t, `Exhausted)

let base_name name =
  match String.rindex_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let infer_constraints t ~keep =
  match keep with
  | [] -> []
  | _ ->
      let rel = Package.base t.current in
      let schema = Relation.schema rel in
      let alias = t.query.Ast.input_alias in
      let mk_suggestion pred description =
        {
          Suggest.kind = Suggest.Base_constraint;
          paql_fragment = Pb_sql.Ast.expr_to_string pred;
          description;
          refined = Suggest.apply_base t.query pred;
        }
      in
      List.concat_map
        (fun { Schema.name; ty } ->
          let col = base_name name in
          let idx = Schema.index_of_exn schema name in
          let values = List.map (fun i -> (Relation.row rel i).(idx)) keep in
          match ty with
          | Value.T_str -> (
              (* All kept tuples share this categorical value? *)
              match values with
              | v :: rest
                when (not (Value.is_null v)) && List.for_all (Value.equal v) rest
                ->
                  let pred =
                    Pb_sql.Ast.Binop
                      (Pb_sql.Ast.Eq, Pb_sql.Ast.Col (alias ^ "." ^ col), Pb_sql.Ast.Lit v)
                  in
                  [
                    mk_suggestion pred
                      (Printf.sprintf
                         "all kept tuples share %s = %s; restrict every %s to it"
                         col (Value.to_string v) alias);
                  ]
              | _ -> [])
          | Value.T_int | Value.T_float -> (
              (* A tight numeric band across the kept tuples suggests a
                 per-tuple range constraint. *)
              let kept = List.filter_map Value.to_float values in
              match (kept, Relation.column_stats rel name) with
              | x :: _ :: _, Some (rel_lo, rel_hi, _) ->
                  let k_lo = List.fold_left Float.min x kept in
                  let k_hi = List.fold_left Float.max x kept in
                  let spread = rel_hi -. rel_lo in
                  if spread > 0.0 && (k_hi -. k_lo) /. spread < 0.5 then
                    let pred =
                      Pb_sql.Ast.Between
                        ( Pb_sql.Ast.Col (alias ^ "." ^ col),
                          Pb_sql.Ast.Lit (Value.Float k_lo),
                          Pb_sql.Ast.Lit (Value.Float k_hi) )
                    in
                    [
                      mk_suggestion pred
                        (Printf.sprintf
                           "kept tuples cluster in %s ∈ [%g, %g]; restrict \
                            every %s to that band"
                           col k_lo k_hi alias);
                    ]
                  else []
              | _ -> [])
          | Value.T_bool -> [])
        (Schema.columns schema)

let simulate ?(seed = 17) ?(max_rounds = 50) db query ~target =
  match start ~seed db query with
  | Error _ -> None
  | Ok session ->
      let target_set = List.sort_uniq compare target in
      let subset_of_target pkg =
        List.for_all
          (fun i -> List.mem i target_set)
          (Package.support pkg)
      in
      let rec loop session n =
        if subset_of_target (current session) then Some (n, true)
        else if n >= max_rounds then Some (n, false)
        else begin
          let keep =
            List.filter
              (fun i -> List.mem i target_set)
              (Package.support (current session))
          in
          let session, status = keep_and_resample session ~keep in
          match status with
          | `Fresh -> loop session (n + 1)
          | `Exhausted -> Some (n + 1, subset_of_target (current session))
        end
      in
      loop session 0
