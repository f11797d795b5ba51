type estimate = {
  strategy_label : string;
  applicable : bool;
  exact : bool;
  cost : float;
  note : string;
}

let exact_preference = 10.0

(* Count atoms and disjunction branches of the compiled formula — the ILP
   row count and indicator count follow from these. *)
let rec formula_shape = function
  | Coeffs.C_true | Coeffs.C_false -> (0, 0)
  | Coeffs.C_atom _ -> (1, 0)
  | Coeffs.C_and fs ->
      List.fold_left
        (fun (a, o) f ->
          let a', o' = formula_shape f in
          (a + a', o + o'))
        (0, 0) fs
  | Coeffs.C_or fs ->
      List.fold_left
        (fun (a, o) f ->
          let a', o' = formula_shape f in
          (a + a', o + o'))
        (0, List.length fs)
        fs

let proven_infeasible (c : Coeffs.t) =
  let b = Pruning.cardinality_bounds c in
  b.Pruning.lo > b.Pruning.hi

let estimates (c : Coeffs.t) =
  let n = float_of_int (max 1 c.n) in
  let bounds = Pruning.cardinality_bounds c in
  let atoms, or_branches =
    match c.formula with
    | Ok f -> formula_shape f
    | Error _ -> (1, 0)
  in
  let per_check = float_of_int (atoms + 1) in
  let space log2_size =
    if log2_size = neg_infinity then 0.0
    else if log2_size > 60.0 then infinity
    else (2.0 ** log2_size) *. per_check
  in
  let bf_cost = space (Pruning.log2_unpruned c) in
  let bf_pruned_cost = space (Pruning.log2_pruned c bounds) in
  let ilp =
    if not (Translate.linearizable c) then
      {
        strategy_label = "ilp";
        applicable = false;
        exact = true;
        cost = infinity;
        note = "constraints or objective not linearizable";
      }
    else begin
      (* Work per node ~ one LP: pivots ~ rows, each O(n); nodes grow with
         the integrality gap, for which disjunction branches are the main
         driver in PaQL models. *)
      let rows = float_of_int (max 1 (2 * atoms)) in
      let expected_nodes = 16.0 *. (2.0 ** float_of_int (min or_branches 10)) in
      {
        strategy_label = "ilp";
        applicable = true;
        exact = true;
        cost = expected_nodes *. rows *. n;
        note =
          Printf.sprintf "%d atoms, %d disjunction branches over %d tuples"
            atoms or_branches c.n;
      }
    end
  in
  let ls_params = Local_search.default_params in
  let ls_cost =
    float_of_int (ls_params.Local_search.restarts * ls_params.Local_search.max_rounds)
    *. n *. per_check
  in
  [
    {
      strategy_label = "brute-force";
      applicable = bf_cost < infinity;
      exact = true;
      cost = bf_cost;
      note = Printf.sprintf "2^%.1f candidate packages" (Pruning.log2_unpruned c);
    };
    {
      strategy_label = "brute-force+pruning";
      applicable = bf_pruned_cost < infinity;
      exact = true;
      cost = bf_pruned_cost;
      note =
        Printf.sprintf "cardinality %s leaves 2^%.1f candidates"
          (Pruning.bounds_to_string bounds)
          (Pruning.log2_pruned c bounds);
    };
    ilp;
    {
      strategy_label = "local-search";
      applicable = true;
      exact = false;
      cost = ls_cost;
      note =
        Printf.sprintf "%d restarts x %d rounds x %d tuples"
          ls_params.Local_search.restarts ls_params.Local_search.max_rounds c.n;
    };
  ]

let pick (c : Coeffs.t) =
  let all = List.filter (fun e -> e.applicable) (estimates c) in
  match all with
  | [] -> assert false (* local search is always applicable *)
  | first :: _ ->
      let cheapest =
        List.fold_left (fun acc e -> if e.cost < acc.cost then e else acc) first all
      in
      let cheapest_exact =
        List.fold_left
          (fun acc e ->
            match acc with
            | Some best when best.cost <= e.cost -> acc
            | _ when e.exact -> Some e
            | _ -> acc)
          None all
      in
      (match cheapest_exact with
      | Some e when e.cost <= exact_preference *. Float.max 1.0 cheapest.cost -> e
      | _ -> cheapest)

let to_table c =
  let rows =
    List.map
      (fun e ->
        [
          e.strategy_label;
          (if e.applicable then "yes" else "no");
          (if e.exact then "yes" else "no");
          (if e.cost = infinity then "inf"
           else Printf.sprintf "10^%.1f" (log10 (Float.max 1.0 e.cost)));
          e.note;
        ])
      (estimates c)
  in
  Pb_util.Table.render
    ~header:[ "strategy"; "applicable"; "exact"; "est. cost"; "why" ]
    rows
