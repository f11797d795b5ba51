module Sql = Pb_sql.Ast
module Ast = Pb_paql.Ast
module Package = Pb_paql.Package
module Value = Pb_relation.Value

type axis = { label : string; expr : Sql.expr }

type t = {
  axes : axis * axis;
  points : (float * float) list;
  current : (float * float) option;
  complete : bool;
}

let count_axis = { label = "COUNT(*)"; expr = Sql.Agg (Sql.Count_star, None) }

let axis_of_expr e = { label = Sql.expr_to_string e; expr = e }

(* Collect the aggregate sub-expressions of a constraint formula, in
   appearance order. *)
let rec aggregates (e : Sql.expr) =
  match e with
  | Sql.Agg (Sql.Count_star, _) -> [ e ]
  | Sql.Agg (_, Some _) -> [ e ]
  | Sql.Agg (_, None) -> []
  | Sql.Lit _ | Sql.Col _ -> []
  | Sql.Unary_minus x | Sql.Not x | Sql.Is_null (x, _) | Sql.Like (x, _, _) ->
      aggregates x
  | Sql.Binop (_, a, b) -> aggregates a @ aggregates b
  | Sql.Between (a, b, c) -> aggregates a @ aggregates b @ aggregates c
  | Sql.In_list (x, xs, _) -> aggregates x @ List.concat_map aggregates xs
  | Sql.In_query (x, _, _) -> aggregates x
  | Sql.Exists _ -> []
  | Sql.Func (_, xs) -> List.concat_map aggregates xs
  | Sql.Case (branches, default) ->
      List.concat_map (fun (c, e) -> aggregates c @ aggregates e) branches
      @ (match default with Some e -> aggregates e | None -> [])

let is_sum = function Sql.Agg (Sql.Sum, Some _) -> true | _ -> false

let pick_axes (q : Ast.t) =
  let constraint_aggs =
    match q.such_that with Some e -> aggregates e | None -> []
  in
  let objective_agg =
    match q.objective with
    | Some (_, e) -> ( match aggregates e with a :: _ -> Some a | [] -> None)
    | None -> None
  in
  let y =
    match objective_agg with
    | Some e -> axis_of_expr e
    | None -> (
        match constraint_aggs with e :: _ -> axis_of_expr e | [] -> count_axis)
  in
  let x =
    let different e = Sql.expr_to_string e <> y.label in
    match List.find_opt (fun e -> is_sum e && different e) constraint_aggs with
    | Some e -> axis_of_expr e
    | None -> (
        match List.find_opt different constraint_aggs with
        | Some e -> axis_of_expr e
        | None -> count_axis)
  in
  (x, y)

(* Both axes are compiled once, against the package schema, and applied
   to each package's rows as one group. *)
let projector db (q : Ast.t) candidates (x, y) =
  let schema =
    Pb_relation.Schema.qualify q.package_alias
      (Pb_relation.Relation.schema candidates)
  in
  let axis a =
    let f =
      Pb_sql.Compile.group ~select:(Pb_sql.Executor.select db) schema a.expr
    in
    fun rows -> Option.value (Value.to_float (f rows)) ~default:0.0
  in
  let fx = axis x and fy = axis y in
  fun pkg ->
    let rows = Pb_relation.Relation.rows (Package.materialize pkg) in
    (fx rows, fy rows)

let build ?(max_packages = 2000) ?current db (q : Ast.t) =
  let axes = pick_axes q in
  let coeffs = Pb_core.Coeffs.make db q in
  let packages =
    Pb_core.Brute_force.enumerate_valid ~limit:max_packages coeffs
  in
  let complete = List.length packages < max_packages in
  let project = projector db q coeffs.Pb_core.Coeffs.candidates axes in
  {
    axes;
    points = List.map project packages;
    current = Option.map project current;
    complete;
  }

let render ?(width = 64) ?(height = 16) t =
  let all_points =
    match t.current with Some p -> p :: t.points | None -> t.points
  in
  match all_points with
  | [] -> "(no valid packages found)\n"
  | _ ->
      let xs = List.map fst all_points and ys = List.map snd all_points in
      let pad lo hi = if hi -. lo < 1e-9 then (lo -. 1.0, hi +. 1.0) else (lo, hi) in
      let xmin, xmax = pad (Pb_util.Stats.minimum xs) (Pb_util.Stats.maximum xs) in
      let ymin, ymax = pad (Pb_util.Stats.minimum ys) (Pb_util.Stats.maximum ys) in
      let grid = Array.make_matrix height width ' ' in
      let place (x, y) glyph =
        let gx =
          int_of_float
            (Float.round ((x -. xmin) /. (xmax -. xmin) *. float_of_int (width - 1)))
        in
        let gy =
          int_of_float
            (Float.round ((y -. ymin) /. (ymax -. ymin) *. float_of_int (height - 1)))
        in
        let gy = height - 1 - gy in
        match (grid.(gy).(gx), glyph) with
        | _, '@' -> grid.(gy).(gx) <- '@'
        | '@', _ -> ()
        | ' ', g -> grid.(gy).(gx) <- g
        | _, _ -> grid.(gy).(gx) <- '*'
      in
      List.iter (fun p -> place p 'o') t.points;
      (match t.current with Some p -> place p '@' | None -> ());
      let buf = Buffer.create (width * height * 2) in
      let xaxis, yaxis = t.axes in
      Buffer.add_string buf
        (Printf.sprintf "y: %s in [%g, %g]\n" yaxis.label ymin ymax);
      Array.iter
        (fun row ->
          Buffer.add_char buf '|';
          Buffer.add_string buf (String.init width (fun i -> row.(i)));
          Buffer.add_char buf '\n')
        grid;
      Buffer.add_char buf '+';
      Buffer.add_string buf (String.make width '-');
      Buffer.add_char buf '\n';
      Buffer.add_string buf
        (Printf.sprintf "x: %s in [%g, %g]\n" xaxis.label xmin xmax);
      Buffer.add_string buf
        (if t.complete then
           Printf.sprintf "%d package(s) in the result space\n"
             (List.length t.points)
         else
           Printf.sprintf "running — %d package(s) found so far\n"
             (List.length t.points));
      Buffer.contents buf
