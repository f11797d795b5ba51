module Analyze = Pb_paql.Analyze
module Ast = Pb_paql.Ast
module Package = Pb_paql.Package
module Semantics = Pb_paql.Semantics
module Relation = Pb_relation.Relation
module Schema = Pb_relation.Schema
module Value = Pb_relation.Value
module Prng = Pb_util.Prng
module Progress = Pb_obs.Progress
module Gov = Pb_util.Gov

type params = {
  seed : int;
  restarts : int;
  max_rounds : int;
  replacement_k : int;
  use_sql_neighborhood : bool;
  sample_cap : int;
}

let default_params =
  {
    seed = 42;
    restarts = 3;
    max_rounds = 200;
    replacement_k = 1;
    use_sql_neighborhood = true;
    sample_cap = 4096;
  }

type stats = {
  rounds : int;
  sql_queries : int;
  pairs_examined : int;
  restarts_used : int;
}

type outcome = {
  best : Pb_paql.Package.t option;
  best_objective : float option;
  stats : stats;
}

(* ---- Indexed formula: atoms pulled into a flat array so that running
   aggregate sums can be maintained incrementally across moves. -------- *)

type iformula =
  | I_true
  | I_false
  | I_atom of int
  | I_and of iformula list
  | I_or of iformula list

type indexed = { slots : Coeffs.compiled_atom array; body : iformula }

let index_formula f =
  let slots = ref [] and count = ref 0 in
  let rec go = function
    | Coeffs.C_true -> I_true
    | Coeffs.C_false -> I_false
    | Coeffs.C_atom a ->
        let id = !count in
        incr count;
        slots := a :: !slots;
        I_atom id
    | Coeffs.C_and fs -> I_and (List.map go fs)
    | Coeffs.C_or fs -> I_or (List.map go fs)
  in
  let body = go f in
  { slots = Array.of_list (List.rev !slots); body }

(* Per-atom running sum for a multiplicity vector: Σ mult·coef for linear
   atoms, Σ mult·arg for AVG; extremum atoms are evaluated from scratch. *)
let recompute_sums indexed mult =
  Array.map
    (fun atom ->
      match atom with
      | Coeffs.C_linear { coef; _ } ->
          let s = ref 0.0 in
          Array.iteri
            (fun i m -> if m > 0 then s := !s +. (float_of_int m *. coef.(i)))
            mult;
          !s
      | Coeffs.C_avg { arg; _ } ->
          let s = ref 0.0 in
          Array.iteri
            (fun i m -> if m > 0 then s := !s +. (float_of_int m *. arg.(i)))
            mult;
          !s
      | Coeffs.C_ext _ -> 0.0)
    indexed.slots

let atom_delta atom ~outs ~ins =
  let per_tuple =
    match atom with
    | Coeffs.C_linear { coef; _ } -> Some coef
    | Coeffs.C_avg { arg; _ } -> Some arg
    | Coeffs.C_ext _ -> None
  in
  match per_tuple with
  | None -> 0.0
  | Some values ->
      let d = ref 0.0 in
      List.iter (fun i -> d := !d -. values.(i)) outs;
      List.iter (fun i -> d := !d +. values.(i)) ins;
      !d

(* Violation of one atom given its (possibly shifted) sum, the package
   cardinality, and — for extremum atoms — the multiplicity vector. All
   violations are normalized by 1 + |rhs| so constraints on different
   scales mix sanely in the repair objective. *)
let atom_violation atom ~sum ~card ~mult =
  let dist cmp lhs rhs =
    let raw =
      match cmp with
      | Analyze.Le -> lhs -. rhs
      | Analyze.Lt -> lhs -. rhs +. 1e-12
      | Analyze.Ge -> rhs -. lhs
      | Analyze.Gt -> rhs -. lhs +. 1e-12
    in
    Float.max 0.0 (raw /. (1.0 +. Float.abs rhs))
  in
  match atom with
  | Coeffs.C_linear { cmp; rhs; has_sum; _ } ->
      if card = 0 && has_sum then 1.0 else dist cmp sum rhs
  | Coeffs.C_avg { cmp; rhs; _ } ->
      if card = 0 then 1.0 else dist cmp (sum /. float_of_int card) rhs
  | Coeffs.C_ext { maximum; arg; cmp; rhs } ->
      let best = ref nan and seen = ref false in
      Array.iteri
        (fun i m ->
          if m > 0 then
            if not !seen then begin
              best := arg.(i);
              seen := true
            end
            else if maximum then best := Float.max !best arg.(i)
            else best := Float.min !best arg.(i))
        mult;
      if not !seen then 1.0 else dist cmp !best rhs

let rec formula_violation indexed sums ~card ~mult = function
  | I_true -> 0.0
  | I_false -> 1.0
  | I_atom id ->
      atom_violation indexed.slots.(id) ~sum:sums.(id) ~card ~mult
  | I_and fs ->
      List.fold_left
        (fun acc f -> acc +. formula_violation indexed sums ~card ~mult f)
        0.0 fs
  | I_or fs ->
      List.fold_left
        (fun acc f -> Float.min acc (formula_violation indexed sums ~card ~mult f))
        infinity fs

(* ---- SQL neighbourhood (§4.2) -------------------------------------- *)

let tmp_p0 = "__pb_p0"
let tmp_cand = "__pb_cand"

(* Per-atom value column name in the temp tables. *)
let acol j = Printf.sprintf "a%d" j

let install_temp_tables db (c : Coeffs.t) indexed pkg =
  let natoms = Array.length indexed.slots in
  let per_tuple j i =
    match indexed.slots.(j) with
    | Coeffs.C_linear { coef; _ } -> coef.(i)
    | Coeffs.C_avg { arg; _ } -> arg.(i)
    | Coeffs.C_ext { arg; _ } -> arg.(i)
  in
  let atom_cols =
    List.init natoms (fun j -> { Schema.name = acol j; ty = Value.T_float })
  in
  let p0_schema =
    Schema.make
      ({ Schema.name = "pos"; ty = Value.T_int }
       :: { Schema.name = "cand"; ty = Value.T_int }
       :: atom_cols)
  in
  let p0_rows =
    List.mapi
      (fun pos i ->
        Array.of_list
          (Value.Int pos :: Value.Int i
          :: List.init natoms (fun j -> Value.Float (per_tuple j i))))
      (Package.indices pkg)
  in
  Pb_sql.Database.put db tmp_p0 (Relation.create p0_schema p0_rows);
  let cand_schema =
    Schema.make
      ({ Schema.name = "cand"; ty = Value.T_int }
       :: { Schema.name = "mult"; ty = Value.T_int }
       :: atom_cols)
  in
  let cand_rows =
    List.init c.n (fun i ->
        Array.of_list
          (Value.Int i
          :: Value.Int (Package.multiplicity pkg i)
          :: List.init natoms (fun j -> Value.Float (per_tuple j i))))
  in
  Pb_sql.Database.put db tmp_cand (Relation.create cand_schema cand_rows)

let fnum x = Printf.sprintf "%.12g" x

(* WHERE fragment expressing that the k-replacement keeps (the SQL-
   expressible part of) the formula satisfied. [sums] and [card] describe
   the current package. *)
let rec sql_condition indexed sums ~card ~k body =
  let delta j =
    let outs =
      List.init k (fun t -> Printf.sprintf " - o%d.%s" (t + 1) (acol j))
    in
    let ins =
      List.init k (fun t -> Printf.sprintf " + i%d.%s" (t + 1) (acol j))
    in
    fnum sums.(j) ^ String.concat "" outs ^ String.concat "" ins
  in
  match body with
  | I_true -> "TRUE"
  | I_false -> "FALSE"
  | I_and fs ->
      "("
      ^ String.concat " AND "
          (List.map (sql_condition indexed sums ~card ~k) fs)
      ^ ")"
  | I_or fs ->
      "("
      ^ String.concat " OR "
          (List.map (sql_condition indexed sums ~card ~k) fs)
      ^ ")"
  | I_atom j -> (
      match indexed.slots.(j) with
      | Coeffs.C_linear { cmp; rhs; _ } ->
          Printf.sprintf "(%s %s %s)" (delta j) (Analyze.cmp_to_string cmp)
            (fnum rhs)
      | Coeffs.C_avg { cmp; rhs; _ } ->
          (* Cardinality is unchanged by a replacement, so AVG cmp rhs
             becomes SUM cmp rhs*card. *)
          Printf.sprintf "(%s %s %s)" (delta j) (Analyze.cmp_to_string cmp)
            (fnum (rhs *. float_of_int card))
      | Coeffs.C_ext _ ->
          (* Not expressible as a join predicate; over-approximate and let
             the compiled re-validation filter the results. *)
          "TRUE")

let build_neighborhood_sql indexed sums ~card ~k ~max_mult body =
  let froms =
    List.init k (fun t -> Printf.sprintf "%s o%d" tmp_p0 (t + 1))
    @ List.init k (fun t -> Printf.sprintf "%s i%d" tmp_cand (t + 1))
  in
  let selects =
    List.init k (fun t -> Printf.sprintf "o%d.pos AS out%d" (t + 1) (t + 1))
    @ List.init k (fun t -> Printf.sprintf "i%d.cand AS in%d" (t + 1) (t + 1))
  in
  let guards = ref [] in
  (* Distinct package positions leave, in canonical order. *)
  for t = 1 to k - 1 do
    guards := Printf.sprintf "o%d.pos < o%d.pos" t (t + 1) :: !guards
  done;
  (* Distinct candidates enter, in canonical order. *)
  for t = 1 to k - 1 do
    guards := Printf.sprintf "i%d.cand < i%d.cand" t (t + 1) :: !guards
  done;
  (* Entering tuples must have spare multiplicity and differ from every
     leaving occurrence (a conservative under-approximation for REPEAT;
     see the interface documentation). *)
  for t = 1 to k do
    guards := Printf.sprintf "i%d.mult < %d" t max_mult :: !guards;
    for s = 1 to k do
      guards := Printf.sprintf "i%d.cand <> o%d.cand" t s :: !guards
    done
  done;
  let condition = sql_condition indexed sums ~card ~k body in
  Printf.sprintf "SELECT %s FROM %s WHERE %s"
    (String.concat ", " selects)
    (String.concat ", " froms)
    (String.concat " AND " (condition :: List.rev !guards))

let sql_replacements ?gov _db (c : Coeffs.t) pkg ~k =
  if k < 1 || k > 3 then invalid_arg "sql_replacements: k must be in 1..3";
  if Package.cardinality pkg < k then
    invalid_arg "sql_replacements: package smaller than k";
  let indexed =
    match c.formula with
    | Ok f -> index_formula f
    | Error _ -> index_formula Coeffs.C_true
  in
  let mult = Package.multiplicities pkg in
  let sums = recompute_sums indexed mult in
  let card = Package.cardinality pkg in
  (* The neighbourhood query's FROM references only the two temp tables
     (every needed per-tuple value is precomputed into their columns), so
     they live in a private scratch database: a search never mutates the
     shared catalog that other queries read. *)
  let scratch = Pb_sql.Database.create () in
  install_temp_tables scratch c indexed pkg;
  let sql =
    build_neighborhood_sql indexed sums ~card ~k ~max_mult:c.max_mult
      indexed.body
  in
  let result =
    match Pb_sql.Executor.execute_sql ?gov scratch sql with
    | Pb_sql.Executor.Rows rel -> rel
    | _ -> assert false
  in
  let positions = Array.of_list (Package.indices pkg) in
  (* One trial vector for every returned row, moved and moved back: a
     fresh copy per row was most of this function's allocation. *)
  let trial = Array.copy mult in
  let moves =
    List.filter_map
      (fun row ->
        let int_at idx =
          match Value.to_int row.(idx) with Some v -> v | None -> assert false
        in
        let outs = List.init k (fun t -> positions.(int_at t)) in
        let ins = List.init k (fun t -> int_at (k + t)) in
        (* Re-validate against the full (possibly non-linear) semantics. *)
        List.iter (fun i -> trial.(i) <- trial.(i) - 1) outs;
        List.iter (fun i -> trial.(i) <- trial.(i) + 1) ins;
        let valid =
          (not (Array.exists (fun m -> m < 0) trial))
          && Coeffs.check_mult c trial
        in
        List.iter (fun i -> trial.(i) <- trial.(i) + 1) outs;
        List.iter (fun i -> trial.(i) <- trial.(i) - 1) ins;
        if valid then Some (outs, ins) else None)
      (Relation.to_list result)
  in
  (moves, sql)

(* ---- Hill-climbing driver ------------------------------------------ *)

type search_state = {
  coeffs : Coeffs.t;
  indexed : indexed;
  mult : int array;
  mutable card : int;
  mutable sums : float array;
  mutable total_rounds : int;
  mutable sql_queries : int;
  mutable pairs : int;
}

let state_violation st =
  formula_violation st.indexed st.sums ~card:st.card ~mult:st.mult
    st.indexed.body

let apply_move st ~outs ~ins =
  List.iter (fun i -> st.mult.(i) <- st.mult.(i) - 1) outs;
  List.iter (fun i -> st.mult.(i) <- st.mult.(i) + 1) ins;
  st.card <- st.card - List.length outs + List.length ins;
  Array.iteri
    (fun j _ ->
      st.sums.(j) <-
        st.sums.(j) +. atom_delta st.indexed.slots.(j) ~outs ~ins)
    st.sums

let move_ok st ~outs ~ins =
  (* Multiplicity legality only; constraint quality is scored separately. *)
  let trial = Hashtbl.create 8 in
  let get i =
    match Hashtbl.find_opt trial i with
    | Some v -> v
    | None -> st.mult.(i)
  in
  List.for_all
    (fun i ->
      let v = get i - 1 in
      Hashtbl.replace trial i v;
      v >= 0)
    outs
  && List.for_all
       (fun i ->
         let v = get i + 1 in
         Hashtbl.replace trial i v;
         v <= st.coeffs.max_mult)
       ins

(* Score a move by (violation after, objective after); lower violation
   wins, objective breaks ties. *)
let move_score st dir_opt ~outs ~ins =
  apply_move st ~outs ~ins;
  let v = state_violation st in
  let obj =
    match dir_opt with
    | None -> 0.0
    | Some dir -> (
        match Coeffs.objective_of_mult st.coeffs st.mult with
        | Some x -> ( match dir with Ast.Maximize -> x | Ast.Minimize -> -.x)
        | None -> (
            match
              Semantics.objective_value ~db:st.coeffs.Coeffs.db st.coeffs.query
                (Coeffs.package_of_mult st.coeffs st.mult)
            with
            | Some x -> (
                match dir with Ast.Maximize -> x | Ast.Minimize -> -.x)
            | None -> neg_infinity))
  in
  (* Undo. *)
  apply_move st ~outs:ins ~ins:outs;
  (v, obj)

let candidate_moves st rng ~bounds ~sample_cap =
  let n = st.coeffs.n in
  let support = ref [] in
  Array.iteri (fun i m -> if m > 0 then support := i :: !support) st.mult;
  let support = Array.of_list !support in
  let moves = ref [] and count = ref 0 in
  let push m =
    if !count < sample_cap then begin
      moves := m :: !moves;
      incr count
    end
  in
  let out_budget = max 1 (sample_cap / (max 1 n)) in
  let outs =
    if Array.length support <= out_budget then support
    else begin
      let copy = Array.copy support in
      Prng.shuffle rng copy;
      Array.sub copy 0 out_budget
    end
  in
  (* Replacements. *)
  Array.iter
    (fun out ->
      for inn = 0 to n - 1 do
        if inn <> out && st.mult.(inn) < st.coeffs.max_mult then
          push ([ out ], [ inn ])
      done)
    outs;
  (* Cardinality moves, when the pruning bounds leave room. *)
  if st.card + 1 <= bounds.Pruning.hi then
    for inn = 0 to n - 1 do
      if st.mult.(inn) < st.coeffs.max_mult then push ([], [ inn ])
    done;
  if st.card - 1 >= bounds.Pruning.lo then
    Array.iter (fun out -> push ([ out ], [])) support;
  !moves

let random_start (c : Coeffs.t) rng ~bounds =
  let nm = c.n * c.max_mult in
  let lo = max 0 bounds.Pruning.lo and hi = min nm bounds.Pruning.hi in
  let card = if lo >= hi then lo else Prng.int_in rng lo (min hi (lo + 64)) in
  let mult = Array.make c.n 0 in
  let placed = ref 0 and attempts = ref 0 in
  while !placed < card && !attempts < 100 * (card + 1) do
    incr attempts;
    let i = Prng.int rng (max 1 c.n) in
    if c.n > 0 && mult.(i) < c.max_mult then begin
      mult.(i) <- mult.(i) + 1;
      incr placed
    end
  done;
  mult

let search ?(params = default_params) ?gov db (c : Coeffs.t) =
  (* Round-level poll: cancellation or deadline only.  The restart loop
     additionally meters the token's [Ls_restarts] budget. *)
  let cancel () = match gov with Some g -> Gov.check g <> None | None -> false in
  let restart_stopped () =
    match gov with
    | Some g -> Gov.check ~resource:Gov.Ls_restarts g <> None
    | None -> false
  in
  (* Move-level poll: one round scores thousands of moves, so a
     cancelled request or a passed deadline is also noticed every 256 of
     them and unwinds through the handler below instead of finishing the
     round. *)
  let scored = ref 0 in
  let poll_move () =
    incr scored;
    if !scored land 255 = 0 then
      match gov with
      | Some g -> (
          match Gov.check g with
          | Some reason -> raise (Gov.Interrupted reason)
          | None -> ())
      | None -> ()
  in
  let rng = Prng.create params.seed in
  let indexed =
    match c.formula with
    | Ok f -> index_formula f
    | Error _ -> index_formula Coeffs.C_true
  in
  let opaque = Result.is_error c.formula in
  let bounds = Pruning.cardinality_bounds c in
  let dir_opt =
    match c.query.objective with Some (d, _) -> Some d | None -> None
  in
  let best_mult = ref None and best_obj = ref None in
  let st =
    {
      coeffs = c;
      indexed;
      mult = Array.make c.n 0;
      card = 0;
      sums = [||];
      total_rounds = 0;
      sql_queries = 0;
      pairs = 0;
    }
  in
  let is_valid_now () =
    if opaque then Coeffs.check_mult c st.mult
    else state_violation st <= 1e-12 && Coeffs.check_mult c st.mult
  in
  let consider_current () =
    if is_valid_now () then begin
      let obj = Coeffs.objective_of_mult c st.mult in
      let obj =
        match (obj, dir_opt) with
        | None, Some _ ->
            Semantics.objective_value ~db:c.Coeffs.db c.query
              (Coeffs.package_of_mult c st.mult)
        | o, _ -> o
      in
      match (dir_opt, obj, !best_obj) with
      | None, _, _ ->
          if !best_mult = None then best_mult := Some (Array.copy st.mult)
      | Some _, None, _ ->
          if !best_mult = None then best_mult := Some (Array.copy st.mult)
      | Some dir, Some v, prev ->
          let better_than_prev =
            match prev with None -> true | Some p -> Semantics.better dir v p
          in
          if better_than_prev then begin
            best_mult := Some (Array.copy st.mult);
            best_obj := Some v;
            match gov with
            | Some g ->
                Progress.incumbent ~key:(Gov.family_id g)
                  ~strategy:"local-search" ~nodes:st.total_rounds v
            | None -> ()
          end
    end
  in
  let restarts_used = ref 0 in
  (try
  if bounds.Pruning.lo <= bounds.Pruning.hi && c.n > 0 then
    for _restart = 1 to params.restarts do
      if not (restart_stopped ()) then begin
      incr restarts_used;
      (match gov with Some g -> Gov.spend g Gov.Ls_restarts 1 | None -> ());
      let start = random_start c rng ~bounds in
      Array.blit start 0 st.mult 0 c.n;
      st.card <- Array.fold_left ( + ) 0 st.mult;
      st.sums <- recompute_sums indexed st.mult;
      (* Repair phase: greedy violation descent. *)
      let rounds = ref 0 in
      let stuck = ref false in
      while
        (not (is_valid_now ()))
        && !rounds < params.max_rounds
        && (not !stuck)
        && not (cancel ())
      do
        incr rounds;
        st.total_rounds <- st.total_rounds + 1;
        let current = state_violation st in
        let moves =
          candidate_moves st rng ~bounds ~sample_cap:params.sample_cap
        in
        st.pairs <- st.pairs + List.length moves;
        let best_move = ref None and best_v = ref current in
        List.iter
          (fun (outs, ins) ->
            poll_move ();
            if move_ok st ~outs ~ins then begin
              let v, _ = move_score st None ~outs ~ins in
              if v < !best_v -. 1e-12 then begin
                best_v := v;
                best_move := Some (outs, ins)
              end
            end)
          moves;
        match !best_move with
        | Some (outs, ins) -> apply_move st ~outs ~ins
        | None ->
            if opaque then begin
              (* No gradient to follow: random restart-ish kick. *)
              match moves with
              | [] -> stuck := true
              | ms ->
                  let arr = Array.of_list ms in
                  let outs, ins = Prng.choice rng arr in
                  if move_ok st ~outs ~ins then apply_move st ~outs ~ins
                  else stuck := true
            end
            else stuck := true
      done;
      consider_current ();
      (* Improvement phase: best objective-improving valid replacement. *)
      if is_valid_now () && dir_opt <> None then begin
        let improving = ref true and rounds = ref 0 in
        while !improving && !rounds < params.max_rounds && not (cancel ()) do
          incr rounds;
          st.total_rounds <- st.total_rounds + 1;
          improving := false;
          let replacement_moves =
            if params.use_sql_neighborhood && st.card >= params.replacement_k
            then begin
              st.sql_queries <- st.sql_queries + 1;
              let pkg = Coeffs.package_of_mult c st.mult in
              let moves, _ =
                sql_replacements ?gov db c pkg ~k:params.replacement_k
              in
              moves
            end
            else
              List.filter
                (fun (outs, ins) ->
                  poll_move ();
                  outs <> [] && ins <> []
                  && move_ok st ~outs ~ins
                  &&
                  let v, _ = move_score st None ~outs ~ins in
                  v <= 1e-12)
                (candidate_moves st rng ~bounds ~sample_cap:params.sample_cap)
          in
          (* Also consider growing/shrinking the package when the COUNT
             constraints leave slack — the paper notes the neighbourhood
             query "can be modified to explore packages of different
             cardinalities in a straightforward way". *)
          let cardinality_moves =
            let moves = ref [] in
            if st.card + 1 <= bounds.Pruning.hi then
              for inn = 0 to c.Coeffs.n - 1 do
                if st.mult.(inn) < c.Coeffs.max_mult then
                  moves := ([], [ inn ]) :: !moves
              done;
            if st.card - 1 >= bounds.Pruning.lo then
              Array.iteri
                (fun out m -> if m > 0 then moves := ([ out ], []) :: !moves)
                st.mult;
            List.filter
              (fun (outs, ins) ->
                poll_move ();
                move_ok st ~outs ~ins
                &&
                let v, _ = move_score st None ~outs ~ins in
                v <= 1e-12)
              !moves
          in
          let valid_moves = replacement_moves @ cardinality_moves in
          st.pairs <- st.pairs + List.length valid_moves;
          let dir = Option.get dir_opt in
          let current_obj =
            match Coeffs.objective_of_mult c st.mult with
            | Some v -> ( match dir with Ast.Maximize -> v | Ast.Minimize -> -.v)
            | None -> neg_infinity
          in
          let best_move = ref None and best_gain = ref current_obj in
          List.iter
            (fun (outs, ins) ->
              poll_move ();
              if move_ok st ~outs ~ins then begin
                let v, obj = move_score st (Some dir) ~outs ~ins in
                if v <= 1e-12 && obj > !best_gain +. 1e-9 then begin
                  best_gain := obj;
                  best_move := Some (outs, ins)
                end
              end)
            valid_moves;
          match !best_move with
          | Some (outs, ins) ->
              apply_move st ~outs ~ins;
              improving := true;
              consider_current ()
          | None -> ()
        done
      end
      end
    done
  with Gov.Interrupted _ ->
    (* A move-level poll or the neighbourhood SQL query hit the stop
       mid-round; keep the best package found so far, like any other
       cancellation. *)
    ());
  {
    best = Option.map (Coeffs.package_of_mult c) !best_mult;
    best_objective = !best_obj;
    stats =
      {
        rounds = st.total_rounds;
        sql_queries = st.sql_queries;
        pairs_examined = st.pairs;
        restarts_used = !restarts_used;
      };
  }
