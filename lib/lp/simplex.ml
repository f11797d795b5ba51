type status = Optimal | Infeasible | Unbounded | Iteration_limit

type solution = {
  status : status;
  x : float array;
  objective : float;
  iterations : int;
}

let eps_pivot = 1e-9
let eps_cost = 1e-7
let eps_feas = 1e-7

(* A basic variable further than this outside its bounds, with no column
   able to move it back, proves the LP infeasible. Phase 1 of the cold
   path uses the same tolerance on the artificial sum. *)
let eps_infeas = 1e-6

(* Smallest pivot a refactor accepts; below it the snapshot basis counts
   as singular and the solve starts cold. *)
let eps_refactor = 1e-7

(* Where a state reads its structural bounds: a model's variable bounds,
   which branch-and-bound moves between solves, or one fixed box shared
   by every column of a dense load. *)
type bounds_src = Of_model of Model.t | Box of float * float

(* Working state of one model's LP. Columns: structural vars, then one
   slack per row, then the artificials a cold start appends. Over its
   first [ncols] columns the tableau always holds B^-1·[A | I | art], so
   its slack block is B^-1. The model's rows and objective are copied in
   once (a dense load shares its rows instead); only the variable bounds
   are read again, at every solve. *)
type state = {
  src : bounds_src;
  m : int;
  n : int;
  a0 : float array array;     (* m x n original structural coefficients;
                                 never written *)
  rhs : float array;          (* owned by the state: {!resolve_rhs}
                                 overwrites it *)
  slack_lo : float array;     (* slack bounds encode the row sense *)
  slack_hi : float array;
  obj : float array;          (* n, maximization sense *)
  obj_sign : float;           (* -1 for Minimize: undoes the negation *)
  max_iterations : int;
  mutable ncols : int;
  a : float array array;      (* m x (n + 2m) *)
  lo : float array;
  hi : float array;
  xval : float array;         (* current value of every column *)
  basis : int array;          (* m basic column indices *)
  is_basic : bool array;
  at_upper : bool array;      (* for nonbasic columns *)
  cost : float array;         (* current phase's cost vector *)
  reduced : float array;      (* reduced costs *)
  resid : float array;        (* m, refactor scratch *)
  snap_slack : bool array;    (* m, refactor scratch: slacks the
                                 snapshot keeps basic *)
  x : float array;            (* extracted structural values *)
  mutable loaded : bool;      (* the tableau holds a basis of the model *)
  mutable n_warm : int;
  mutable n_refactors : int;
  mutable n_fallbacks : int;
  mutable n_dual_pivots : int;
}

type basis = { cols : int array; upper : Bytes.t }

type stats = {
  warm_solves : int;
  refactors : int;
  cold_fallbacks : int;
  dual_pivots : int;
}

let m_lp_solves =
  Pb_obs.Metrics.counter ~help:"LP relaxations solved"
    "pb_lp_solves_total"

let m_lp_pivots =
  Pb_obs.Metrics.counter ~help:"Simplex pivots across all phases"
    "pb_lp_pivots_total"

let m_warm =
  Pb_obs.Metrics.counter ~help:"LP re-solves started from a previous basis"
    "pb_lp_warm_solves_total"

let m_refactors =
  Pb_obs.Metrics.counter
    ~help:"Warm re-solves that refactored a basis snapshot first"
    "pb_lp_refactors_total"

let m_fallbacks =
  Pb_obs.Metrics.counter
    ~help:"Warm re-solves that fell back to a cold two-phase solve"
    "pb_lp_cold_fallbacks_total"

let m_dual_pivots =
  Pb_obs.Metrics.counter ~help:"Dual simplex pivots in warm re-solves"
    "pb_lp_dual_pivots_total"

let make ?max_iterations ~src ~a0 ~rhs ~senses ~obj ~obj_sign n =
  let m = Array.length a0 in
  let ncols_max = n + (2 * m) in
  let slack_lo = Array.make m 0.0 and slack_hi = Array.make m 0.0 in
  Array.iteri
    (fun i sense ->
      match sense with
      | Model.Le -> slack_hi.(i) <- infinity
      | Model.Ge -> slack_lo.(i) <- neg_infinity
      | Model.Eq -> ())
    senses;
  let max_iterations =
    match max_iterations with Some k -> k | None -> (200 * (m + n)) + 1000
  in
  {
    src;
    m;
    n;
    a0;
    rhs;
    slack_lo;
    slack_hi;
    obj;
    obj_sign;
    max_iterations;
    ncols = n + m;
    a = Array.make_matrix m ncols_max 0.0;
    lo = Array.make ncols_max 0.0;
    hi = Array.make ncols_max 0.0;
    xval = Array.make ncols_max 0.0;
    basis = Array.make m (-1);
    is_basic = Array.make ncols_max false;
    at_upper = Array.make ncols_max false;
    cost = Array.make ncols_max 0.0;
    reduced = Array.make ncols_max 0.0;
    resid = Array.make m 0.0;
    snap_slack = Array.make m false;
    x = Array.make n 0.0;
    loaded = false;
    n_warm = 0;
    n_refactors = 0;
    n_fallbacks = 0;
    n_dual_pivots = 0;
  }

let create ?max_iterations model =
  let n = Model.num_vars model in
  let constrs = Array.of_list (Model.constraints model) in
  let a0 = Array.map (fun _ -> Array.make n 0.0) constrs in
  Array.iteri
    (fun i (c : Model.constr) ->
      List.iter (fun (coef, v) -> a0.(i).(v) <- a0.(i).(v) +. coef) c.terms)
    constrs;
  make ?max_iterations ~src:(Of_model model) ~a0
    ~rhs:(Array.map (fun (c : Model.constr) -> c.rhs) constrs)
    ~senses:(Array.map (fun (c : Model.constr) -> c.sense) constrs)
    ~obj:(Model.objective_terms model)
    ~obj_sign:
      (match Model.objective model with
      | Model.Maximize _ -> 1.0
      | Model.Minimize _ -> -1.0)
    n

let lower t j = match t.src with Of_model m -> Model.lower m j | Box (l, _) -> l
let upper t j = match t.src with Of_model m -> Model.upper m j | Box (_, u) -> u

let var_name t j =
  match t.src with Of_model m -> Model.var_name m j | Box _ -> Printf.sprintf "x%d" j

(* Branch-and-bound can tighten a variable into an empty domain. *)
let crossed t =
  match t.src with
  | Box (l, u) -> l > u
  | Of_model m ->
      let found = ref false in
      for j = 0 to t.n - 1 do
        if Model.lower m j > Model.upper m j then found := true
      done;
      !found

(* Put nonbasic column [j] on the finite bound its [at_upper] bit names,
   or on the other one when that side is infinite. *)
let place_nonbasic t j =
  if t.at_upper.(j) && Float.is_finite t.hi.(j) then t.xval.(j) <- t.hi.(j)
  else if Float.is_finite t.lo.(j) then begin
    t.at_upper.(j) <- false;
    t.xval.(j) <- t.lo.(j)
  end
  else begin
    t.at_upper.(j) <- true;
    t.xval.(j) <- t.hi.(j)
  end

(* Gauss-Jordan pivot on (r, j): column j becomes the r-th unit vector. *)
let pivot t r j =
  let row_r = t.a.(r) in
  let p = row_r.(j) in
  for k = 0 to t.ncols - 1 do
    row_r.(k) <- row_r.(k) /. p
  done;
  for i = 0 to t.m - 1 do
    if i <> r then begin
      let row_i = t.a.(i) in
      let f = row_i.(j) in
      if f <> 0.0 then
        for k = 0 to t.ncols - 1 do
          row_i.(k) <- row_i.(k) -. (f *. row_r.(k))
        done
    end
  done

let set_phase2_cost t =
  Array.blit t.obj 0 t.cost 0 t.n;
  Array.fill t.cost t.n (t.ncols - t.n) 0.0

(* Reduced costs d_j = c_j - c_B . (column j of the tableau). *)
let compute_reduced t =
  let ncols = t.ncols in
  Array.blit t.cost 0 t.reduced 0 ncols;
  for i = 0 to t.m - 1 do
    let cb = t.cost.(t.basis.(i)) in
    if cb <> 0.0 then begin
      let row = t.a.(i) in
      for j = 0 to ncols - 1 do
        t.reduced.(j) <- t.reduced.(j) -. (cb *. row.(j))
      done
    end
  done

(* Rebuild the tableau from the model's rows and current bounds, with the
   slack basis where the residual fits and an artificial elsewhere. *)
let load_cold t =
  let n = t.n and m = t.m in
  let base_cols = n + m in
  Array.fill t.is_basic 0 (Array.length t.is_basic) false;
  Array.fill t.at_upper 0 (Array.length t.at_upper) false;
  (* Structural variables: nonbasic at the finite bound nearest zero. *)
  for j = 0 to n - 1 do
    let l = lower t j and u = upper t j in
    t.lo.(j) <- l;
    t.hi.(j) <- u;
    if Float.is_finite l then t.xval.(j) <- l
    else if Float.is_finite u then begin
      t.xval.(j) <- u;
      t.at_upper.(j) <- true
    end
    else
      invalid_arg
        (Printf.sprintf "Simplex: variable %s is free on both sides"
           (var_name t j))
  done;
  (* Choose an initial basis row by row: use the slack when the residual
     fits its bounds, otherwise clamp the slack and add an artificial. *)
  let next_art = ref base_cols in
  for i = 0 to m - 1 do
    let row = t.a.(i) in
    Array.blit t.a0.(i) 0 row 0 n;
    Array.fill row n (Array.length row - n) 0.0;
    let slack = n + i in
    row.(slack) <- 1.0;
    t.lo.(slack) <- t.slack_lo.(i);
    t.hi.(slack) <- t.slack_hi.(i);
    let residual = ref t.rhs.(i) in
    for j = 0 to n - 1 do
      if row.(j) <> 0.0 then residual := !residual -. (row.(j) *. t.xval.(j))
    done;
    if !residual >= t.lo.(slack) -. eps_feas
       && !residual <= t.hi.(slack) +. eps_feas
    then begin
      t.basis.(i) <- slack;
      t.is_basic.(slack) <- true;
      t.xval.(slack) <- !residual
    end
    else begin
      (* Clamp the slack to its nearest bound, keep it nonbasic there. *)
      let clamped =
        if !residual < t.lo.(slack) then t.lo.(slack) else t.hi.(slack)
      in
      t.xval.(slack) <- clamped;
      t.at_upper.(slack) <-
        clamped = t.hi.(slack) && Float.is_finite t.hi.(slack);
      let leftover = !residual -. clamped in
      let art = !next_art in
      incr next_art;
      row.(art) <- (if leftover >= 0.0 then 1.0 else -1.0);
      (* The tableau must carry B^-1·A: with the artificial basic, its
         column has to be +1, so scale the whole row by its sign. *)
      if leftover < 0.0 then
        for k = 0 to art do
          row.(k) <- -.row.(k)
        done;
      t.lo.(art) <- 0.0;
      t.hi.(art) <- infinity;
      t.xval.(art) <- Float.abs leftover;
      t.basis.(i) <- art;
      t.is_basic.(art) <- true
    end
  done;
  t.ncols <- !next_art;
  t.loaded <- true

(* One primal simplex phase: maximize [t.cost] over the current tableau,
   from a primal feasible basis. Returns `Optimal | `Unbounded | `Limit
   and the pivot count. *)
let run_phase t =
  let m = t.m and ncols = t.ncols in
  let max_iterations = t.max_iterations in
  let iterations = ref 0 in
  let bland_threshold = (max_iterations / 2) + 100 in
  let reduced = t.reduced in
  (* A bound flip moves no column in or out of the basis and leaves the
     tableau and costs alone, so the reduced costs it leaves are still
     exact; only a pivot makes them stale. *)
  let stale = ref true in
  let finished = ref None in
  while !finished = None do
    if !iterations >= max_iterations then finished := Some `Limit
    else begin
      if !stale then compute_reduced t;
      stale := false;
      (* Entering variable. A fixed column (lo = hi) cannot move, so it
         never enters: its only possible step is a zero-length flip. *)
      let use_bland = !iterations > bland_threshold in
      let enter = ref (-1) and enter_dir = ref 1.0 and best = ref eps_cost in
      (try
         for j = 0 to ncols - 1 do
           if (not t.is_basic.(j)) && t.lo.(j) <> t.hi.(j) then begin
             let d = reduced.(j) in
             let eligible_up = (not t.at_upper.(j)) && d > eps_cost in
             let eligible_down =
               t.at_upper.(j) && d < -.eps_cost
             in
             if eligible_up || eligible_down then
               if use_bland then begin
                 enter := j;
                 enter_dir := (if eligible_up then 1.0 else -1.0);
                 raise Exit
               end
               else if Float.abs d > !best then begin
                 best := Float.abs d;
                 enter := j;
                 enter_dir := (if eligible_up then 1.0 else -1.0)
               end
           end
         done
       with Exit -> ());
      if !enter < 0 then finished := Some `Optimal
      else begin
        let j = !enter and dir = !enter_dir in
        (* Ratio test: entering moves by t >= 0 in direction dir; basic i
           changes at rate -dir * a.(i).(j). *)
        let t_best = ref (t.hi.(j) -. t.lo.(j)) in
        let leave_row = ref (-1) in
        for i = 0 to m - 1 do
          let rate = -.dir *. t.a.(i).(j) in
          let b = t.basis.(i) in
          if rate < -.eps_pivot then begin
            let room = t.xval.(b) -. t.lo.(b) in
            if Float.is_finite t.lo.(b) then begin
              let ti = room /. -.rate in
              if ti < !t_best -. eps_pivot
                 || (ti < !t_best +. eps_pivot
                     && (!leave_row < 0 || b < t.basis.(!leave_row)))
              then begin
                t_best := max 0.0 ti;
                leave_row := i
              end
            end
          end
          else if rate > eps_pivot then begin
            if Float.is_finite t.hi.(b) then begin
              let room = t.hi.(b) -. t.xval.(b) in
              let ti = room /. rate in
              if ti < !t_best -. eps_pivot
                 || (ti < !t_best +. eps_pivot
                     && (!leave_row < 0 || b < t.basis.(!leave_row)))
              then begin
                t_best := max 0.0 ti;
                leave_row := i
              end
            end
          end
        done;
        if Float.is_finite !t_best = false then finished := Some `Unbounded
        else begin
          let step = !t_best in
          (* Move entering variable and update basic values. *)
          t.xval.(j) <- t.xval.(j) +. (dir *. step);
          for i = 0 to m - 1 do
            let rate = -.dir *. t.a.(i).(j) in
            if rate <> 0.0 then
              t.xval.(t.basis.(i)) <- t.xval.(t.basis.(i)) +. (rate *. step)
          done;
          if !leave_row < 0 then begin
            (* Bound flip: entering stays nonbasic at the other bound. *)
            t.at_upper.(j) <- not t.at_upper.(j);
            t.xval.(j) <- (if t.at_upper.(j) then t.hi.(j) else t.lo.(j))
          end
          else begin
            let r = !leave_row in
            let leaving = t.basis.(r) in
            (* Snap the leaving variable exactly onto the bound it hit. *)
            let rate = -.dir *. t.a.(r).(j) in
            if rate < 0.0 then begin
              t.xval.(leaving) <- t.lo.(leaving);
              t.at_upper.(leaving) <- false
            end
            else begin
              t.xval.(leaving) <- t.hi.(leaving);
              t.at_upper.(leaving) <- true
            end;
            t.is_basic.(leaving) <- false;
            t.is_basic.(j) <- true;
            t.basis.(r) <- j;
            (* The ratio test only admits |a.(r).(j)| > eps_pivot. *)
            pivot t r j;
            stale := true
          end;
          incr iterations
        end
      end
    end
  done;
  (Option.get !finished, !iterations)

(* Bounded dual simplex over the live basis, for [t.cost]. While some
   basic variable lies outside its bounds, the most infeasible one leaves
   onto the bound it violates, and the entering column is the one with
   the smallest dual ratio |d_j|/|a_rj| among the columns that move the
   leaving variable toward that bound. From a dual feasible basis (a
   parent's optimum: a bound change moves a nonbasic column to its new
   bound without changing which side it sits on) this keeps the reduced
   costs optimal-signed. Returns `Feasible | `Infeasible | `Limit and the
   pivot count. *)
let run_dual t =
  let m = t.m and ncols = t.ncols in
  let max_iterations = t.max_iterations in
  let bland_threshold = (max_iterations / 2) + 100 in
  let reduced = t.reduced in
  compute_reduced t;
  let iterations = ref 0 in
  let finished = ref None in
  while !finished = None do
    if !iterations >= max_iterations then finished := Some `Limit
    else begin
      (* Leaving row: the most infeasible basic variable, or under the
         anti-cycling rule the infeasible one with the lowest index. *)
      let use_bland = !iterations > bland_threshold in
      let r = ref (-1) and chosen = ref 0.0 and worst = ref 0.0 in
      for i = 0 to m - 1 do
        let b = t.basis.(i) in
        let v = t.xval.(b) in
        let viol = Float.max (t.lo.(b) -. v) (v -. t.hi.(b)) in
        if viol > eps_feas then begin
          if
            if use_bland then !r < 0 || b < t.basis.(!r) else viol > !worst
          then begin
            r := i;
            chosen := viol
          end;
          if viol > !worst then worst := viol
        end
      done;
      if !r < 0 then finished := Some `Feasible
      else begin
        let r = !r in
        let b = t.basis.(r) in
        let increase = t.xval.(b) < t.lo.(b) in
        let row = t.a.(r) in
        (* Entering column. Moving nonbasic j off its bound changes x_b
           at rate -a_rj per unit of increase; fixed columns never move. *)
        let q = ref (-1) and best = ref infinity and best_mag = ref 0.0 in
        for j = 0 to ncols - 1 do
          if (not t.is_basic.(j)) && t.lo.(j) <> t.hi.(j) then begin
            let arj = row.(j) in
            let up = not t.at_upper.(j) in
            let helps =
              if increase = up then arj < -.eps_pivot else arj > eps_pivot
            in
            if helps then begin
              let slack = if up then -.reduced.(j) else reduced.(j) in
              let mag = Float.abs arj in
              let ratio = Float.max 0.0 slack /. mag in
              if
                ratio < !best -. 1e-12
                || ((not use_bland) && ratio <= !best +. 1e-12
                   && mag > !best_mag)
              then begin
                q := j;
                best := ratio;
                best_mag := mag
              end
            end
          end
        done;
        if !q < 0 then
          (* Nothing can repair row r: infeasible unless every violation
             is within the tolerance the cold phase 1 also accepts. *)
          finished :=
            Some
              (if !chosen > eps_infeas then `Infeasible
               else if !worst <= eps_infeas then `Feasible
               else `Limit)
        else begin
          let q = !q in
          let target = if increase then t.lo.(b) else t.hi.(b) in
          let arq = row.(q) in
          let dq = (target -. t.xval.(b)) /. -.arq in
          t.xval.(q) <- t.xval.(q) +. dq;
          for i = 0 to m - 1 do
            let aiq = t.a.(i).(q) in
            if aiq <> 0.0 then begin
              let bi = t.basis.(i) in
              t.xval.(bi) <- t.xval.(bi) -. (aiq *. dq)
            end
          done;
          t.xval.(b) <- target;
          (* d_j -= (d_q / a_rq)·a_rj, read off row r before the pivot. *)
          let ratio = reduced.(q) /. arq in
          if ratio <> 0.0 then
            for j = 0 to ncols - 1 do
              let arj = row.(j) in
              if arj <> 0.0 then reduced.(j) <- reduced.(j) -. (ratio *. arj)
            done;
          reduced.(q) <- 0.0;
          t.is_basic.(b) <- false;
          t.at_upper.(b) <- not increase;
          t.is_basic.(q) <- true;
          t.basis.(r) <- q;
          pivot t r q;
          incr iterations
        end
      end
    end
  done;
  (Option.get !finished, !iterations)

let extract t status iterations =
  Array.blit t.xval 0 t.x 0 t.n;
  let s = ref 0.0 in
  for j = 0 to t.n - 1 do
    s := !s +. (t.obj.(j) *. t.x.(j))
  done;
  { status; x = t.x; objective = t.obj_sign *. !s; iterations }

let crossed_infeasible t =
  Array.fill t.x 0 t.n 0.0;
  { status = Infeasible; x = t.x; objective = nan; iterations = 0 }

(* The cold two-phase solve: rebuild the tableau, drive the artificials
   to zero (phase 1), then optimize the objective (phase 2). *)
let cold t =
  if crossed t then crossed_infeasible t
  else begin
    load_cold t;
    let base_cols = t.n + t.m in
    let iters1 =
      if t.ncols > base_cols then begin
        (* Phase 1: maximize the artificials' negated sum. *)
        Array.fill t.cost 0 base_cols 0.0;
        Array.fill t.cost base_cols (t.ncols - base_cols) (-1.0);
        let outcome, iters = run_phase t in
        let infeasibility = ref 0.0 in
        for j = base_cols to t.ncols - 1 do
          infeasibility := !infeasibility +. t.xval.(j)
        done;
        match outcome with
        | `Limit -> Error (extract t Iteration_limit iters)
        | `Unbounded ->
            (* Phase-1 objective is bounded by construction. *)
            Error (extract t Infeasible iters)
        | `Optimal ->
            if !infeasibility > eps_infeas then
              Error (extract t Infeasible iters)
            else begin
              (* Pin artificials at zero for phase 2. *)
              for j = base_cols to t.ncols - 1 do
                t.lo.(j) <- 0.0;
                t.hi.(j) <- 0.0;
                if not t.is_basic.(j) then t.at_upper.(j) <- false
              done;
              Ok iters
            end
      end
      else Ok 0
    in
    match iters1 with
    | Error sol -> sol
    | Ok iters1 ->
        set_phase2_cost t;
        let outcome, iters2 = run_phase t in
        let total = iters1 + iters2 in
        (match outcome with
        | `Optimal -> extract t Optimal total
        | `Unbounded -> extract t Unbounded total
        | `Limit -> extract t Iteration_limit total)
  end

(* Move the live basis onto the model's current bounds: a nonbasic
   column whose bound moved goes to the new bound, and every basic value
   changes by -a_ij·δ. Basic columns only take the new bounds; the dual
   simplex repairs any that now lie outside them. *)
let sync_bounds t =
  match t.src with
  | Box _ -> ()
  | Of_model m ->
      for j = 0 to t.n - 1 do
        let l = Model.lower m j and u = Model.upper m j in
        if l <> t.lo.(j) || u <> t.hi.(j) then begin
          t.lo.(j) <- l;
          t.hi.(j) <- u;
          if not t.is_basic.(j) then begin
            let old = t.xval.(j) in
            place_nonbasic t j;
            let delta = t.xval.(j) -. old in
            if delta <> 0.0 then
              for i = 0 to t.m - 1 do
                let aij = t.a.(i).(j) in
                if aij <> 0.0 then begin
                  let b = t.basis.(i) in
                  t.xval.(b) <- t.xval.(b) -. (aij *. delta)
                end
              done
          end
        end
      done

(* Rebuild the tableau for a snapshot basis, under the model's current
   bounds: reset to [A | I] with the slack basis, then pivot each
   structural snapshot column into the row, among those whose slack the
   snapshot does not keep, with the largest entry. Artificial columns are
   dropped; the slacks they displaced stay basic. Returns the pivot
   count, or [None] with the tableau marked unloaded when the basis is
   (numerically) singular. *)
let refactor t (snap : basis) =
  let n = t.n and m = t.m in
  let base_cols = n + m in
  t.ncols <- base_cols;
  for i = 0 to m - 1 do
    let row = t.a.(i) in
    Array.blit t.a0.(i) 0 row 0 n;
    Array.fill row n m 0.0;
    row.(n + i) <- 1.0;
    t.basis.(i) <- n + i
  done;
  Array.fill t.snap_slack 0 m false;
  for j = 0 to base_cols - 1 do
    t.is_basic.(j) <- j >= n;
    t.at_upper.(j) <-
      j / 8 < Bytes.length snap.upper
      && Char.code (Bytes.get snap.upper (j / 8)) land (1 lsl (j land 7)) <> 0
  done;
  Array.iter
    (fun c -> if c >= n && c < base_cols then t.snap_slack.(c - n) <- true)
    snap.cols;
  let pivots = ref 0 and singular = ref false in
  for s = 0 to Array.length snap.cols - 1 do
    let j = snap.cols.(s) in
    if j < n && not !singular then begin
      let r = ref (-1) and best = ref eps_refactor in
      for i = 0 to m - 1 do
        let b = t.basis.(i) in
        if b >= n && not t.snap_slack.(b - n) then begin
          let v = Float.abs t.a.(i).(j) in
          if v > !best then begin
            best := v;
            r := i
          end
        end
      done;
      if !r < 0 then singular := true
      else begin
        t.is_basic.(t.basis.(!r)) <- false;
        t.is_basic.(j) <- true;
        t.basis.(!r) <- j;
        pivot t !r j;
        incr pivots
      end
    end
  done;
  if !singular then begin
    t.loaded <- false;
    None
  end
  else begin
    (match t.src with
    | Of_model md ->
        for j = 0 to n - 1 do
          t.lo.(j) <- Model.lower md j;
          t.hi.(j) <- Model.upper md j
        done
    | Box (l, u) ->
        Array.fill t.lo 0 n l;
        Array.fill t.hi 0 n u);
    for j = 0 to base_cols - 1 do
      if not t.is_basic.(j) then place_nonbasic t j
    done;
    (* x_B = B^-1·(b - N·x_N), with B^-1 read off the slack block. *)
    for i = 0 to m - 1 do
      let a0i = t.a0.(i) in
      let s = ref t.rhs.(i) in
      for j = 0 to n - 1 do
        if not t.is_basic.(j) then s := !s -. (a0i.(j) *. t.xval.(j))
      done;
      if not t.is_basic.(n + i) then s := !s -. t.xval.(n + i);
      t.resid.(i) <- !s
    done;
    for k = 0 to m - 1 do
      let row = t.a.(k) in
      let s = ref 0.0 in
      for i = 0 to m - 1 do
        s := !s +. (row.(n + i) *. t.resid.(i))
      done;
      t.xval.(t.basis.(k)) <- !s
    done;
    Some !pivots
  end

let record sol =
  Pb_obs.Metrics.incr m_lp_solves;
  Pb_obs.Metrics.incr ~by:sol.iterations m_lp_pivots;
  sol

let start ?max_iterations model =
  let t = create ?max_iterations model in
  (t, record (cold t))

let solve ?max_iterations model = snd (start ?max_iterations model)

let start_dense ?max_iterations ~rows ~senses ~rhs ~maximize ~objective ~lower
    ~upper () =
  let n = Array.length objective in
  if Array.length senses <> Array.length rows
     || Array.length rhs <> Array.length rows
     || Array.exists (fun r -> Array.length r <> n) rows
  then invalid_arg "Simplex.start_dense: row, sense and rhs shapes differ";
  let t =
    make ?max_iterations ~src:(Box (lower, upper)) ~a0:rows ~rhs:(Array.copy rhs) ~senses
      ~obj:(if maximize then Array.copy objective else Array.map Float.neg objective)
      ~obj_sign:(if maximize then 1.0 else -1.0)
      n
  in
  (t, record (cold t))

type column = Basic | At_lower | At_upper

let column t j =
  if t.is_basic.(j) then Basic else if t.at_upper.(j) then At_upper else At_lower

(* y = c_B·B^-1 under the phase-2 costs, with B^-1 read off the slack
   block of the tableau. *)
let duals t =
  if not t.loaded then invalid_arg "Simplex.dual_bound: no basis loaded";
  let y = Array.make t.m 0.0 in
  for k = 0 to t.m - 1 do
    let b = t.basis.(k) in
    let cb = if b < t.n then t.obj.(b) else 0.0 in
    if cb <> 0.0 then begin
      let row = t.a.(k) in
      for i = 0 to t.m - 1 do
        y.(i) <- y.(i) +. (cb *. row.(t.n + i))
      done
    end
  done;
  y

type dual_bound = { prices : float array; reduced_costs : float array; value : float }

let dual_bound t =
  let y = duals t in
  (* A <= row's price is >= 0 and a >= row's <= 0 in any dual feasible
     point; clamping only removes the pivots' rounding noise. *)
  Array.iteri
    (fun i v ->
      if t.slack_hi.(i) = infinity && t.slack_lo.(i) = 0.0 then y.(i) <- Float.max 0.0 v
      else if t.slack_lo.(i) = neg_infinity then y.(i) <- Float.min 0.0 v)
    y;
  let d = Array.copy t.obj in
  Array.iteri
    (fun i yi ->
      if yi <> 0.0 then begin
        let row = t.a0.(i) in
        for j = 0 to t.n - 1 do
          d.(j) <- d.(j) -. (yi *. row.(j))
        done
      end)
    y;
  let v = ref 0.0 in
  Array.iteri (fun i yi -> if yi <> 0.0 then v := !v +. (yi *. t.rhs.(i))) y;
  for j = 0 to t.n - 1 do
    let dj = d.(j) in
    if dj > 0.0 then v := !v +. (dj *. upper t j)
    else if dj < 0.0 then v := !v +. (dj *. lower t j)
  done;
  { prices = y; reduced_costs = d; value = !v }

let basis t =
  let upper = Bytes.make ((t.ncols + 7) / 8) '\000' in
  for j = 0 to t.ncols - 1 do
    if t.at_upper.(j) && not t.is_basic.(j) then
      Bytes.set upper (j / 8)
        (Char.chr (Char.code (Bytes.get upper (j / 8)) lor (1 lsl (j land 7))))
  done;
  { cols = Array.copy t.basis; upper }

let resolve ?from t =
  t.n_warm <- t.n_warm + 1;
  Pb_obs.Metrics.incr m_warm;
  let fallback wasted =
    t.n_fallbacks <- t.n_fallbacks + 1;
    Pb_obs.Metrics.incr m_fallbacks;
    let sol = cold t in
    { sol with iterations = wasted + sol.iterations }
  in
  let sol =
    if crossed t then crossed_infeasible t
    else if not t.loaded then fallback 0
    else
      let prepared =
        match from with
        | None ->
            sync_bounds t;
            Some 0
        | Some snap ->
            t.n_refactors <- t.n_refactors + 1;
            Pb_obs.Metrics.incr m_refactors;
            refactor t snap
      in
      match prepared with
      | None -> fallback 0
      | Some k0 -> (
          set_phase2_cost t;
          let outcome, k1 = run_dual t in
          t.n_dual_pivots <- t.n_dual_pivots + k1;
          Pb_obs.Metrics.incr ~by:k1 m_dual_pivots;
          match outcome with
          | `Limit -> fallback (k0 + k1)
          | `Infeasible -> extract t Infeasible (k0 + k1)
          | `Feasible -> (
              (* Primal phase 2 certifies optimality; from a dual
                 feasible start it takes no pivots. *)
              match run_phase t with
              | `Optimal, k2 -> extract t Optimal (k0 + k1 + k2)
              | `Unbounded, k2 -> extract t Unbounded (k0 + k1 + k2)
              | `Limit, k2 -> fallback (k0 + k1 + k2)))
  in
  record sol

(* x_B = B^-1·(b - N·x_N) is linear in b and nonbasic values do not
   move with it, so new right-hand sides shift the basic values by
   B^-1·Δb, with B^-1 read off the slack block. The artificials a cold
   start appended are pinned at zero first: a phase 1 that stopped short
   leaves them basic at positive values, and the dual simplex must drive
   them out rather than take them for a feasible point. *)
let resolve_rhs t rhs =
  if Array.length rhs <> t.m then
    invalid_arg "Simplex.resolve_rhs: rhs length differs from the row count";
  if t.loaded then begin
    let n = t.n and m = t.m in
    for j = n + m to t.ncols - 1 do
      t.lo.(j) <- 0.0;
      t.hi.(j) <- 0.0;
      if not t.is_basic.(j) then begin
        t.at_upper.(j) <- false;
        t.xval.(j) <- 0.0
      end
    done;
    for i = 0 to m - 1 do
      t.resid.(i) <- rhs.(i) -. t.rhs.(i)
    done;
    for k = 0 to m - 1 do
      let row = t.a.(k) in
      let s = ref 0.0 in
      for i = 0 to m - 1 do
        let d = t.resid.(i) in
        if d <> 0.0 then s := !s +. (row.(n + i) *. d)
      done;
      if !s <> 0.0 then begin
        let b = t.basis.(k) in
        t.xval.(b) <- t.xval.(b) +. !s
      end
    done
  end;
  Array.blit rhs 0 t.rhs 0 t.m;
  resolve t

let stats t =
  {
    warm_solves = t.n_warm;
    refactors = t.n_refactors;
    cold_fallbacks = t.n_fallbacks;
    dual_pivots = t.n_dual_pivots;
  }
