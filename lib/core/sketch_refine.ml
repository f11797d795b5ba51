module Ast = Pb_paql.Ast
module Analyze = Pb_paql.Analyze
module Package = Pb_paql.Package
module Model = Pb_lp.Model
module Milp = Pb_lp.Milp
module Simplex = Pb_lp.Simplex
module Gov = Pb_util.Gov
module Pool = Pb_par.Pool
module Progress = Pb_obs.Progress
module Trace = Pb_obs.Trace

type params = { partitions : int option; fanout : int }

let default_params = { partitions = None; fanout = 4 }

type outcome = {
  best : Package.t option;
  best_objective : float option;
  bound : float option;
  gap : float option;
  proven_optimal : bool;
  applicable : bool;
  reason : string;
  partitions_built : int;
  refine_steps : int;
  refined_partitions : int;
  stuck_partitions : int;
  sketch_status : string;
  partition_seconds : float;
  sketch_seconds : float;
  refine_seconds : float;
  front : string;
  lp_bound : float option;
  lp_pivots : int;
  lp_warm : bool;
  kept_columns : int;
  front_seconds : float;
}

let empty_outcome =
  {
    best = None;
    best_objective = None;
    bound = None;
    gap = None;
    proven_optimal = false;
    applicable = true;
    reason = "";
    partitions_built = 0;
    refine_steps = 0;
    refined_partitions = 0;
    stuck_partitions = 0;
    sketch_status = "-";
    partition_seconds = 0.0;
    sketch_seconds = 0.0;
    refine_seconds = 0.0;
    front = "-";
    lp_bound = None;
    lp_pivots = 0;
    lp_warm = false;
    kept_columns = 0;
    front_seconds = 0.0;
  }

let not_applicable reason = { empty_outcome with applicable = false; reason }

(* ---- Applicability ------------------------------------------------ *)

(* Rows and objective come from {!Translate}, which owns the rule for
   turning PaQL into solver rows; [rows_of_formula] refuses what this
   strategy cannot sketch (MIN/MAX, disjunctions). *)
type row = Translate.row = {
  coef : float array;
  sense : Model.sense;
  rhs : float;
  nonempty : bool;
}

type obj = Translate.objective = No_obj | Linear of Ast.direction * float array

(* ---- Per-partition coefficient aggregation ------------------------ *)

let agg_mean groups coef =
  Array.map
    (fun g ->
      Array.fold_left (fun acc i -> acc +. coef.(i)) 0.0 g
      /. float_of_int (Array.length g))
    groups

(* The loosest member value for a row of the given sense: the smallest
   coefficient can only help a <= row, the largest a >= row. Any real
   package therefore maps to a feasible point of the bound sketch. *)
let agg_loose groups coef sense =
  Array.map
    (fun g ->
      match sense with
      | Model.Le ->
          Array.fold_left (fun acc i -> Float.min acc coef.(i)) infinity g
      | Model.Ge ->
          Array.fold_left (fun acc i -> Float.max acc coef.(i)) neg_infinity g
      | Model.Eq -> assert false (* rows never carry Eq *))
    groups

(* ---- Search ------------------------------------------------------- *)

let milp_status_to_string = function
  | Milp.Optimal -> "optimal"
  | Milp.Feasible -> "feasible"
  | Milp.Infeasible -> "infeasible"
  | Milp.Unbounded -> "unbounded"

(* Cap on how much representative mass the greedy incumbent
   materialisation will expand per round; keeps the anytime path
   O(package size), not O(relation). Deterministic: a pure function of
   the state, never of the pool or the clock. *)
let materialize_cap = 200_000

let pipeline ~params ~pool ~gov (c : Coeffs.t) : outcome =
  match (Translate.rows_of_formula c, Translate.objective_of_coeffs c) with
  | Error reason, _ | _, Error reason -> not_applicable reason
  | Ok rows, Ok obj when c.n = 0 ->
      (* No candidates: the empty package is the only one. *)
      ignore rows;
      ignore obj;
      let valid = Coeffs.check_mult c [||] in
      let best = if valid then Some (Coeffs.package_of_mult c [||]) else None in
      {
        empty_outcome with
        best;
        best_objective = (if valid then Coeffs.objective_of_mult c [||] else None);
        proven_optimal = true;
        sketch_status = "empty";
      }
  | Ok rows, Ok obj ->
      let n = c.n in
      let rows_a = Array.of_list rows in
      let nrows = Array.length rows_a in
      let needs_nonempty = Array.exists (fun r -> r.nonempty) rows_a in
      (* -- Partition ------------------------------------------------ *)
      let (part, features), partition_seconds =
        Trace.timed ~name:"sketch-refine.partition" (fun () ->
            let features =
              Analyze.aggregate_arguments c.query
              |> List.map (fun e -> Coeffs.tuple_values c e)
              |> Array.of_list
            in
            let target =
              match params.partitions with
              | Some k -> k
              | None -> int_of_float (Float.round (sqrt (float_of_int n)))
            in
            (Partition.build ~target ~features ~n, features))
      in
      let groups = part.groups in
      let k = Array.length groups in
      let ub = Array.map (fun g -> Array.length g * c.max_mult) groups in
      (* Per-partition coefficients for both sketches. *)
      let mean_rows = Array.map (fun r -> agg_mean groups r.coef) rows_a in
      let loose_rows =
        Array.map (fun r -> agg_loose groups r.coef r.sense) rows_a
      in
      let mean_obj, loose_obj =
        match obj with
        | No_obj -> (None, None)
        | Linear (dir, coef) ->
            let loose_sense =
              match dir with Ast.Maximize -> Model.Ge | Ast.Minimize -> Model.Le
            in
            (Some (agg_mean groups coef), Some (agg_loose groups coef loose_sense))
      in
      let senses = Array.map (fun r -> r.sense) rows_a in
      let sketch_model row_coefs obj_coefs =
        Translate.of_columns
          ~upper:(Array.map float_of_int ub)
          ~coefs:row_coefs ~senses
          ~rhs:(Array.map (fun r -> r.rhs) rows_a)
          ~nonempty:needs_nonempty
          (match (obj, obj_coefs) with
          | Linear (dir, _), Some coefs -> Linear (dir, coefs)
          | _ -> No_obj)
      in
      (* -- Sketch --------------------------------------------------- *)
      let (bound_sol, rep_sol), sketch_seconds =
        Trace.timed ~name:"sketch-refine.sketch" (fun () ->
            let bound_sol = Milp.solve ~gov:(Gov.child gov) (sketch_model loose_rows loose_obj) in
            let rep_sol = Milp.solve ~gov:(Gov.child gov) (sketch_model mean_rows mean_obj) in
            (bound_sol, rep_sol))
      in
      if bound_sol.Milp.status = Milp.Infeasible then
        (* Sound: the bound sketch relaxes every real package. *)
        {
          empty_outcome with
          best = None;
          proven_optimal = true;
          partitions_built = k;
          sketch_status = "bound-infeasible";
          partition_seconds;
          sketch_seconds;
        }
      else begin
        let bound =
          match (obj, bound_sol.Milp.status) with
          | Linear _, Milp.Optimal -> Some bound_sol.Milp.objective
          | _ -> None
        in
        let y_of sol =
          if Array.length sol.Milp.x = 0 then None
          else Some (Array.map (fun v -> int_of_float (Float.round v)) sol.Milp.x)
        in
        let y0 =
          (* seed refinement from the mean sketch; if it produced no
             point (e.g. mean-level infeasible), fall back to the bound
             sketch's — refinement re-solves anyway, the seed only ranks
             which partitions to refine first *)
          match y_of rep_sol with
          | Some y -> y
          | None -> (
              match y_of bound_sol with
              | Some y -> y
              | None -> Array.make k 0)
        in
        let sketch_status = milp_status_to_string rep_sol.Milp.status in
        (* -- Refine --------------------------------------------------- *)
        let result, refine_seconds =
          Trace.timed ~name:"sketch-refine.refine" (fun () ->
              let refined = Array.make k false in
              let stuck = Array.make k false in
              let repy = Array.copy y0 in
              let fixed_rows = Array.make nrows 0.0 in
              let fixed_count = ref 0 in
              let fixed_obj = ref 0.0 in
              let fixed_sparse = ref [] in
              let refine_steps = ref 0 in
              let stopped = ref false in
              (* Greedy materialisation order: nearest the centroid
                 first; computed lazily per partition, once. *)
              let mat_order = Array.make k None in
              let order_of p =
                match mat_order.(p) with
                | Some o -> o
                | None ->
                    let cent = part.centroids.(p) in
                    let dist i =
                      let acc = ref 0.0 in
                      Array.iteri
                        (fun d f ->
                          let dv = f.(i) -. cent.(d) in
                          acc := !acc +. (dv *. dv))
                        features;
                      !acc
                    in
                    let g = groups.(p) in
                    let dists = Array.map dist g in
                    let o = Array.init (Array.length g) Fun.id in
                    Array.sort
                      (fun a b ->
                        let k = Float.compare dists.(a) dists.(b) in
                        if k <> 0 then k else Int.compare g.(a) g.(b))
                      o;
                    let o = Array.map (fun a -> g.(a)) o in
                    mat_order.(p) <- Some o;
                    o
              in
              let row_ok v (r : row) =
                match r.sense with
                | Model.Le -> v <= r.rhs
                | Model.Ge -> v >= r.rhs
                | Model.Eq -> assert false (* rows never carry Eq *)
              in
              (* Expand the current hybrid state (fixed tuples +
                 representative mass) into a concrete candidate package
                 and check it against the real per-tuple coefficients. *)
              let materialize () =
                let mass = ref 0 in
                Array.iteri
                  (fun p y -> if not refined.(p) then mass := !mass + y)
                  repy;
                if !mass > materialize_cap then None
                else begin
                  let extra = ref [] in
                  let row_vals = Array.copy fixed_rows in
                  let cnt = ref !fixed_count in
                  let ob = ref !fixed_obj in
                  for p = 0 to k - 1 do
                    if (not refined.(p)) && repy.(p) > 0 then begin
                      let order = order_of p in
                      let remaining = ref repy.(p) in
                      Array.iter
                        (fun i ->
                          if !remaining > 0 then begin
                            let m = min c.max_mult !remaining in
                            remaining := !remaining - m;
                            extra := (i, m) :: !extra;
                            let fm = float_of_int m in
                            Array.iteri
                              (fun ri r ->
                                row_vals.(ri) <-
                                  row_vals.(ri) +. (r.coef.(i) *. fm))
                              rows_a;
                            cnt := !cnt + m;
                            match obj with
                            | Linear (_, coef) ->
                                ob := !ob +. (coef.(i) *. fm)
                            | No_obj -> ()
                          end)
                        order
                    end
                  done;
                  let valid =
                    (try
                       Array.iteri
                         (fun ri r ->
                           if not (row_ok row_vals.(ri) r) then raise Exit)
                         rows_a;
                       true
                     with Exit -> false)
                    && ((not needs_nonempty) || !cnt >= 1)
                  in
                  if not valid then None
                  else
                    let objective =
                      match obj with
                      | No_obj -> None
                      | Linear _ -> if !cnt = 0 then None else Some !ob
                    in
                    Some (!extra @ !fixed_sparse, objective)
                end
              in
              let best = ref None in
              let improves cand_obj =
                match (!best, cand_obj) with
                | None, _ -> true
                | Some (_, None), Some _ -> true
                | Some (_, Some cur), Some v -> (
                    match obj with
                    | Linear (Ast.Maximize, _) -> v > cur +. 1e-12
                    | Linear (Ast.Minimize, _) -> v < cur -. 1e-12
                    | No_obj -> false)
                | Some _, None -> false
              in
              let try_incumbent () =
                match materialize () with
                | Some (sparse, objective) when improves objective ->
                    best := Some (sparse, objective);
                    (match objective with
                    | Some v ->
                        Progress.incumbent ~key:(Gov.family_id gov)
                          ~strategy:"sketch-refine" ?bound ~nodes:!refine_steps
                          v
                    | None -> ())
                | _ -> ()
              in
              (* One refine leg: re-solve with partition [p]'s real
                 tuples, other unrefined partitions as representatives,
                 refined tuples frozen into the right-hand sides. *)
              let solve_leg p =
                let xs = groups.(p) in
                let ys =
                  Array.of_list
                    (List.filter (fun q -> (not refined.(q)) && q <> p) (List.init k Fun.id))
                in
                let nx = Array.length xs in
                (* columns: [p]'s tuples, then the other unrefined
                   partitions' representatives *)
                let over tuple_coef rep_coef =
                  Array.append
                    (Array.map (fun i -> tuple_coef.(i)) xs)
                    (Array.map (fun q -> rep_coef.(q)) ys)
                in
                let model =
                  Translate.of_columns
                    ~upper:
                      (Array.append
                         (Array.make nx (float_of_int c.max_mult))
                         (Array.map (fun q -> float_of_int ub.(q)) ys))
                    ~coefs:(Array.mapi (fun ri r -> over r.coef mean_rows.(ri)) rows_a)
                    ~senses
                    ~rhs:(Array.mapi (fun ri r -> r.rhs -. fixed_rows.(ri)) rows_a)
                    ~nonempty:(needs_nonempty && !fixed_count < 1)
                    (match obj with
                    | No_obj -> No_obj
                    | Linear (dir, coef) -> Linear (dir, over coef (Option.get mean_obj)))
                in
                let sol = Milp.solve ~gov:(Gov.child gov) model in
                let mult j = int_of_float (Float.round sol.Milp.x.(j)) in
                match sol.Milp.status with
                | (Milp.Optimal | Milp.Feasible)
                  when Array.length sol.Milp.x > 0 ->
                    Some
                      ( p,
                        sol.Milp.objective,
                        Array.mapi (fun j i -> (i, mult j)) xs,
                        Array.mapi (fun j q -> (q, mult (nx + j))) ys )
                | _ -> None
              in
              let commit (p, _, xs, ys) =
                refined.(p) <- true;
                repy.(p) <- 0;
                Array.iter
                  (fun (i, m) ->
                    if m > 0 then begin
                      fixed_sparse := (i, m) :: !fixed_sparse;
                      fixed_count := !fixed_count + m;
                      let fm = float_of_int m in
                      Array.iteri
                        (fun ri r ->
                          fixed_rows.(ri) <-
                            fixed_rows.(ri) +. (r.coef.(i) *. fm))
                        rows_a;
                      match obj with
                      | Linear (_, coef) ->
                          fixed_obj := !fixed_obj +. (coef.(i) *. fm)
                      | No_obj -> ()
                    end)
                  xs;
                Array.iter (fun (q, y) -> repy.(q) <- y) ys
              in
              try_incumbent ();
              let no_obj_done () = obj = No_obj && !best <> None in
              let candidates () =
                let s = ref [] in
                for p = k - 1 downto 0 do
                  if (not refined.(p)) && (not stuck.(p)) && repy.(p) > 0 then
                    s := p :: !s
                done;
                (* biggest representative mass first, ties to the lowest
                   partition index *)
                List.stable_sort
                  (fun a b -> compare (-repy.(a), a) (-repy.(b), b))
                  !s
              in
              let rec loop () =
                if !stopped || no_obj_done () then ()
                else
                  match Gov.refresh gov with
                  | Some _ -> stopped := true
                  | None when Gov.check ~resource:Gov.Milp_nodes gov <> None ->
                      (* node budget exhausted: further legs could not
                         search, stop with the incumbent (reported as a
                         plain Feasible, not Cancelled — budget stops
                         are not latched as fate) *)
                      stopped := true
                  | None -> (
                      match candidates () with
                      | [] -> ()
                      | all ->
                          let batch =
                            List.filteri (fun i _ -> i < params.fanout) all
                          in
                          let batch_a = Array.of_list batch in
                          let legs =
                            Pool.map_chunks pool ~chunk_size:1
                              ~n:(Array.length batch_a)
                              (fun ~lo ~hi ->
                                let out = ref [] in
                                for i = hi - 1 downto lo do
                                  out := solve_leg batch_a.(i) :: !out
                                done;
                                !out)
                            |> List.concat
                          in
                          refine_steps := !refine_steps + List.length legs;
                          let winner =
                            List.fold_left
                              (fun acc leg ->
                                match (acc, leg) with
                                | None, l -> l
                                | Some _, None -> acc
                                | ( Some (_, bo, _, _),
                                    Some (_, lo_, _, _) ) -> (
                                    (* strict improvement only: ties keep
                                       the earlier (lower-mass-rank) leg *)
                                    match obj with
                                    | Linear (Ast.Maximize, _) ->
                                        if lo_ > bo then leg else acc
                                    | Linear (Ast.Minimize, _) ->
                                        if lo_ < bo then leg else acc
                                    | No_obj -> acc))
                              None legs
                          in
                          (match winner with
                          | Some leg -> commit leg
                          | None ->
                              List.iter (fun p -> stuck.(p) <- true) batch);
                          try_incumbent ();
                          loop ())
              in
              loop ();
              let refined_partitions =
                Array.fold_left (fun a r -> if r then a + 1 else a) 0 refined
              in
              let stuck_partitions =
                Array.fold_left (fun a s -> if s then a + 1 else a) 0 stuck
              in
              (!best, !refine_steps, refined_partitions, stuck_partitions))
        in
        let best_state, refine_steps, refined_partitions, stuck_partitions =
          result
        in
        let best, best_objective =
          match best_state with
          | None -> (None, None)
          | Some (sparse, objective) ->
              let m = Array.make n 0 in
              List.iter (fun (i, mm) -> m.(i) <- mm) sparse;
              (Some (Coeffs.package_of_mult c m), objective)
        in
        let proven_optimal, gap =
          match obj with
          | No_obj -> (best <> None, None)
          | Linear _ -> (
              match (bound, best_objective) with
              | Some b, Some v ->
                  let g = Float.abs (b -. v) /. Float.max 1.0 (Float.abs v) in
                  (g <= 1e-9, Some g)
              | _ -> (false, None))
        in
        {
          best;
          best_objective;
          bound;
          gap;
          proven_optimal;
          applicable = true;
          reason = "";
          partitions_built = k;
          refine_steps;
          refined_partitions;
          stuck_partitions;
          sketch_status;
          partition_seconds;
          sketch_seconds;
          refine_seconds;
          front = "-";
          lp_bound = None;
          lp_pivots = 0;
          lp_warm = false;
          kept_columns = 0;
          front_seconds = 0.0;
        }
      end

(* ---- LP front ----------------------------------------------------- *)

(* At-lower columns the reduced ILP first keeps beside the LP's basic
   and at-upper ones, and the factor the kept set grows by when the
   reduced ILP is infeasible. *)
let front_keep = 300
let front_growth = 4

(* Largest set of at-lower columns the front adds to prove an uncertified
   reduced optimum; beyond it the pipeline takes over. *)
let front_grow_limit = 16 * front_keep

let m_front =
  Pb_obs.Metrics.counter ~help:"SketchRefine runs that solved the whole-relation LP front"
    "pb_engine_lp_front_total"

let m_front_certified =
  Pb_obs.Metrics.counter
    ~help:"LP fronts whose reduced ILP was proven optimal (or infeasible) for the whole relation"
    "pb_engine_lp_front_certified_total"

let m_front_warm =
  Pb_obs.Metrics.counter
    ~help:"LP fronts re-solved from a cached basis of the same LP instead of cold"
    "pb_engine_lp_front_warm_total"

type front_end =
  | Certified of int array * float option  (** multiplicities, objective *)
  | Proved_infeasible
  | Gave_way of (int array * float option) option * float option
      (** incumbent, and a bound in the objective's own sense *)

type front = {
  fate : front_end;
  lp_bound : float option;
  pivots : int;
  kept : int;
  warm : bool;  (** the LP re-solved from a cached basis *)
}

(* ---- Warm LP front ------------------------------------------------- *)

(* The front's LP minus its right-hand sides. Queries that differ only in
   right-hand sides (an exploration tweak moving a window) share a key,
   and the basis one ends on is a start for the other: the dual simplex
   repairs what the new right-hand sides break. The key is the LP's own
   data, compared by content, so a table write that moves a coefficient,
   or another query over the same table, can never be served a basis of
   a different LP. *)
type lp_key = {
  rows : float array array;  (* owned copies; the state reads them in place *)
  senses : Model.sense array;
  objective : float array;   (* owned copy *)
  maximize : bool;
  upper : float;             (* every column lies in [0, upper] *)
}

type warm_entry = {
  key : lp_key;
  state : Simplex.state;
  bytes : int;  (* heap bytes the entry holds *)
}

(* Heap bytes of an entry for [n] columns and [m] rows: the owned rows
   and the tableau ([m·n] words each), and a dozen per-column arrays (the
   owned objective and the state's bounds, values, costs, flags and
   solution); ~1.8 MB at 10k candidates and 5 rows. *)
let entry_bytes ~n ~m = Sys.word_size / 8 * n * ((2 * m) + 12)

(* Retention: the most recently checked-in entries, at most this many
   and this many bytes in all; an entry alone above the byte cap is not
   kept. *)
let front_cache_entries = 4
let front_cache_bytes = 256 lsl 20

let front_cache : warm_entry list ref = ref []
let front_cache_lock = Mutex.create ()

let same_floats (a : float array) (b : float array) =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i >= n || (Float.equal a.(i) b.(i) && go (i + 1)) in
  go 0

let same_lp a b =
  a.maximize = b.maximize
  && Float.equal a.upper b.upper
  && a.senses = b.senses
  && Array.length a.rows = Array.length b.rows
  && same_floats a.objective b.objective
  && Array.for_all2 same_floats a.rows b.rows

(* A hit leaves the cache until it is checked in again, so two queries
   never share a tableau: a concurrent query of the same LP misses and
   solves cold. *)
let check_out key =
  Mutex.protect front_cache_lock (fun () ->
      match List.find_opt (fun e -> same_lp e.key key) !front_cache with
      | None -> None
      | Some e ->
          front_cache := List.filter (fun x -> x != e) !front_cache;
          Some e)

let forget_warm_fronts () = Mutex.protect front_cache_lock (fun () -> front_cache := [])

let check_in entry =
  Mutex.protect front_cache_lock (fun () ->
      let others = List.filter (fun x -> not (same_lp x.key entry.key)) !front_cache in
      let rec keep count bytes = function
        | e :: rest when count < front_cache_entries && bytes + e.bytes <= front_cache_bytes ->
            e :: keep (count + 1) (bytes + e.bytes) rest
        | _ -> []
      in
      front_cache := keep 0 0 (entry :: others))

(* The [q] at-lower columns with the largest reduced costs (ties to the
   lowest index), ascending, by a bounded min-heap over the whole
   relation: O(n log q). *)
let best_at_lower ~q ~n ~at_lower (d : float array) =
  let heap = Array.make (max q 1) 0 and size = ref 0 in
  (* [worse a b]: a ranks below b *)
  let worse a b = d.(a) < d.(b) || (d.(a) = d.(b) && a > b) in
  let swap i j =
    let t = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- t
  in
  let rec up i =
    if i > 0 then
      let p = (i - 1) / 2 in
      if worse heap.(i) heap.(p) then begin
        swap i p;
        up p
      end
  in
  let rec down i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = if l < !size && worse heap.(l) heap.(i) then l else i in
    let m = if r < !size && worse heap.(r) heap.(m) then r else m in
    if m <> i then begin
      swap i m;
      down m
    end
  in
  if q > 0 then
    for j = 0 to n - 1 do
      if at_lower j then
        if !size < q then begin
          heap.(!size) <- j;
          incr size;
          up (!size - 1)
        end
        else if worse heap.(0) j then begin
          heap.(0) <- j;
          down 0
        end
    done;
  Array.sub heap 0 !size

(* Solve the whole-relation LP relaxation from the compiled rows, then
   the ILP over the columns its final basis singles out, and certify
   that ILP's optimum for the whole relation by weak duality. Runs on
   the calling domain only, so it is deterministic at any pool size. *)
let lp_front ~gov (c : Coeffs.t) rows_a needs_nonempty obj =
  let n = c.n in
  let mm = float_of_int c.max_mult in
  let lp_rows =
    if needs_nonempty then
      Array.append rows_a
        [| { coef = Array.make n 1.0; sense = Model.Ge; rhs = 1.0; nonempty = false } |]
    else rows_a
  in
  let maximize, coef =
    match obj with
    | Linear (Ast.Maximize, coef) -> (true, coef)
    | Linear (Ast.Minimize, coef) -> (false, coef)
    | No_obj -> (true, Array.make n 0.0)
  in
  let rhs = Array.map (fun r -> r.rhs) lp_rows in
  let key =
    { rows = Array.map (fun r -> r.coef) lp_rows; senses = Array.map (fun r -> r.sense) lp_rows;
      objective = coef; maximize; upper = mm }
  in
  let entry, lp, warm =
    match check_out key with
    | Some e ->
        Pb_obs.Metrics.incr m_front_warm;
        (e, Simplex.resolve_rhs e.state rhs, true)
    | None ->
        let key = { key with rows = Array.map Array.copy key.rows; objective = Array.copy coef } in
        let state, lp =
          Simplex.start_dense ~rows:key.rows ~senses:key.senses ~rhs ~maximize ~objective:coef
            ~lower:0.0 ~upper:mm ()
        in
        ({ key; state; bytes = entry_bytes ~n ~m:(Array.length key.rows) }, lp, false)
  in
  let st = entry.state in
  (* What the rest of the front reads off the basis, taken before the
     state goes back to the cache for the next query. *)
  let cert =
    match lp.Simplex.status with Simplex.Optimal -> Some (Simplex.dual_bound st) | _ -> None
  in
  let at_lower_bits = Bytes.make n '\000' in
  let always = ref [] and n_at_lower = ref 0 in
  if cert <> None then
    for j = n - 1 downto 0 do
      match Simplex.column st j with
      | Simplex.At_lower ->
          incr n_at_lower;
          Bytes.set at_lower_bits j '\001'
      | Simplex.Basic | Simplex.At_upper -> always := j :: !always
    done;
  check_in entry;
  let finish ?lp_bound ~kept fate =
    { fate; lp_bound; pivots = lp.Simplex.iterations; kept; warm }
  in
  match (lp.Simplex.status, cert) with
  | Simplex.Infeasible, _ -> finish ~kept:0 Proved_infeasible
  | _, None -> finish ~kept:0 (Gave_way (None, None))
  | _, Some cert ->
      let d = cert.Simplex.reduced_costs in
      (* Bounds live in the maximization form; an integral objective over
         integral multiplicities takes integral values, so its bounds
         round down (with slack for the duals' rounding noise). *)
      let integral = Array.for_all Float.is_integer coef in
      let snap v = if integral then Float.floor (v +. 1e-6) else v in
      let own v = if maximize then v else 0.0 -. v in
      let lp_bound = snap cert.Simplex.value in
      let always = Array.of_list !always in
      let at_lower j = Bytes.get at_lower_bits j = '\001' in
      let front_gov =
        match Gov.budget_left gov Gov.Milp_nodes with
        | Some left -> Gov.capped gov Gov.Milp_nodes (max 1 (left / 2))
        | None -> Gov.child gov
      in
      let solve_reduced kept =
        let over (w : float array) = Array.map (fun i -> w.(i)) kept in
        let model =
          Translate.of_columns
            ~upper:(Array.make (Array.length kept) mm)
            ~coefs:(Array.map (fun r -> over r.coef) rows_a)
            ~senses:(Array.map (fun r -> r.sense) rows_a)
            ~rhs:(Array.map (fun r -> r.rhs) rows_a)
            ~nonempty:needs_nonempty
            (match obj with No_obj -> No_obj | Linear (dir, coef) -> Linear (dir, over coef))
        in
        let sol = Milp.solve ~node_order:Milp.Best_bound ~gov:front_gov model in
        let found =
          if Array.length sol.Milp.x = 0 then None
          else begin
            let m = Array.make n 0 in
            Array.iteri (fun k i -> m.(i) <- int_of_float (Float.round sol.Milp.x.(k))) kept;
            if Coeffs.check_mult c m then Some (m, Coeffs.objective_of_mult c m) else None
          end
        in
        (sol.Milp.status, found)
      in
      let rec attempt q =
        let extra = best_at_lower ~q ~n ~at_lower d in
        let kept = Array.append always extra in
        Array.sort Int.compare kept;
        let whole = Array.length extra = !n_at_lower in
        let status, found = solve_reduced kept in
        let n_kept = Array.length kept in
        match (status, found) with
        | Milp.Infeasible, _ when whole -> finish ~lp_bound ~kept:n_kept Proved_infeasible
        | Milp.Infeasible, _ when Gov.check ~resource:Gov.Milp_nodes front_gov = None ->
            attempt (q * front_growth)
        | Milp.Optimal, Some (m, objective) ->
            (* A package that uses an at-lower column j is worth at most
               its cutoff L(y) + min(d_j, 0). [z] is proven optimal once
               no excluded column's cutoff beats it; otherwise only the
               columns whose cutoff does can be in a better package, and
               as they are the top ones by reduced cost, keeping exactly
               them makes the next optimum certified. *)
            let z = match objective with Some v -> own v | None -> 0.0 in
            let tol = 1e-9 *. Float.max 1.0 (Float.abs z) in
            let in_kept = Bytes.make n '\000' in
            Array.iter (fun i -> Bytes.set in_kept i '\001') kept;
            let outside = ref neg_infinity and need = ref 0 in
            for j = 0 to n - 1 do
              if at_lower j then begin
                let cutoff = snap (cert.Simplex.value +. Float.min d.(j) 0.0) in
                if cutoff > z +. tol then incr need;
                if Bytes.get in_kept j = '\000' then outside := Float.max !outside cutoff
              end
            done;
            if whole || obj = No_obj || !outside <= z +. tol then
              finish ~lp_bound ~kept:n_kept (Certified (m, objective))
            else if !need <= front_grow_limit
                    && Gov.check ~resource:Gov.Milp_nodes front_gov = None
            then attempt !need
            else
              finish ~lp_bound ~kept:n_kept
                (Gave_way (Some (m, objective), Some (own (Float.max z !outside))))
        | _, found -> finish ~lp_bound ~kept:n_kept (Gave_way (found, Some (own lp_bound)))
      in
      let r = attempt front_keep in
      { r with lp_bound = Option.map own r.lp_bound }

let better_of ~maximize (a : Package.t option * float option) (b : Package.t option * float option) =
  match (a, b) with
  | (None, _), _ -> b
  | _, (None, _) -> a
  | (Some _, Some va), (Some _, Some vb) ->
      if (maximize && vb > va +. 1e-12) || ((not maximize) && vb < va -. 1e-12) then b else a
  | _ -> a

let search ~params ~pool ~gov (c : Coeffs.t) : outcome =
  match (Translate.rows_of_formula c, Translate.objective_of_coeffs c) with
  | Error reason, _ | _, Error reason -> not_applicable reason
  | Ok _, Ok _ when c.n = 0 -> pipeline ~params ~pool ~gov c
  | Ok rows, Ok obj -> (
      let rows_a = Array.of_list rows in
      let needs_nonempty = Array.exists (fun r -> r.nonempty) rows_a in
      Pb_obs.Metrics.incr m_front;
      let f, front_seconds =
        Trace.timed ~name:"sketch-refine.lp" (fun () ->
            let f = lp_front ~gov c rows_a needs_nonempty obj in
            Trace.add_count (if f.warm then "warm" else "cold") 1;
            Trace.add_count "pivots" f.pivots;
            Trace.add_count "kept_columns" f.kept;
            Trace.add_count
              (match f.fate with
              | Certified _ -> "certified"
              | Proved_infeasible -> "infeasible"
              | Gave_way _ -> "gave_way")
              1;
            f)
      in
      let with_front (o : outcome) front =
        let lp_bound = match obj with No_obj -> None | Linear _ -> f.lp_bound in
        { o with front; lp_bound; lp_pivots = f.pivots; lp_warm = f.warm; kept_columns = f.kept;
                 front_seconds }
      in
      let package_of (m, objective) = (Some (Coeffs.package_of_mult c m), objective) in
      match f.fate with
      | Certified (m, objective) ->
          Pb_obs.Metrics.incr m_front_certified;
          let best, best_objective = package_of (m, objective) in
          with_front
            { empty_outcome with best; best_objective;
              bound = (match obj with No_obj -> None | Linear _ -> objective);
              gap = (match obj with No_obj -> None | Linear _ -> Some 0.0);
              proven_optimal = true; sketch_status = "lp-front" }
            "certified"
      | Proved_infeasible ->
          Pb_obs.Metrics.incr m_front_certified;
          with_front
            { empty_outcome with proven_optimal = true; sketch_status = "lp-infeasible" }
            "infeasible"
      | Gave_way (incumbent, front_bound) ->
          let mine = match incumbent with Some i -> package_of i | None -> (None, None) in
          let maximize = match obj with Linear (Ast.Minimize, _) -> false | _ -> true in
          (* A deadline or cancellation would stop the pipeline at its
             first poll: hand back what the front holds instead. *)
          let o =
            if Gov.refresh gov <> None then { empty_outcome with sketch_status = "lp-front" }
            else pipeline ~params ~pool ~gov c
          in
          let best, best_objective = better_of ~maximize mine (o.best, o.best_objective) in
          let bound =
            match (obj, front_bound, o.bound) with
            | No_obj, _, _ -> None
            | Linear _, Some x, Some y -> Some (if maximize then Float.min x y else Float.max x y)
            | Linear _, (Some _ as b), None | Linear _, None, b -> b
          in
          let proven_optimal, gap =
            match (obj, bound, best_objective) with
            | No_obj, _, _ -> (best <> None || o.proven_optimal, None)
            | Linear _, Some b, Some v ->
                let g = Float.abs (b -. v) /. Float.max 1.0 (Float.abs v) in
                (g <= 1e-9, Some g)
            | Linear _, _, _ -> (best = None && o.proven_optimal, None)
          in
          with_front { o with best; best_objective; bound; gap; proven_optimal } "gave-way")
