(* Tests for the LP/MILP substrate: simplex correctness on known
   instances, degenerate/infeasible/unbounded cases, branch & bound, and
   solution enumeration. *)

module Model = Pb_lp.Model
module Simplex = Pb_lp.Simplex
module Milp = Pb_lp.Milp

let check_float = Alcotest.(check (float 1e-6))

let lp_status =
  Alcotest.testable
    (fun ppf s ->
      Format.pp_print_string ppf
        (match s with
        | Simplex.Optimal -> "optimal"
        | Simplex.Infeasible -> "infeasible"
        | Simplex.Unbounded -> "unbounded"
        | Simplex.Iteration_limit -> "limit"))
    ( = )

let test_lp_basic () =
  (* max 3x+2y st x+y<=4, x+3y<=6, x<=3 -> (3,1), 11 *)
  let m = Model.create () in
  let x = Model.add_var m ~upper:3.0 "x" in
  let y = Model.add_var m "y" in
  Model.add_constr m [ (1.0, x); (1.0, y) ] Model.Le 4.0;
  Model.add_constr m [ (1.0, x); (3.0, y) ] Model.Le 6.0;
  Model.set_objective m (Model.Maximize [ (3.0, x); (2.0, y) ]);
  let s = Simplex.solve m in
  Alcotest.check lp_status "status" Simplex.Optimal s.status;
  check_float "objective" 11.0 s.objective;
  check_float "x" 3.0 s.x.(x);
  check_float "y" 1.0 s.x.(y)

let test_lp_minimize () =
  (* min x+y st x+2y=4 -> (0,2), 2 *)
  let m = Model.create () in
  let x = Model.add_var m "x" in
  let y = Model.add_var m "y" in
  Model.add_constr m [ (1.0, x); (2.0, y) ] Model.Eq 4.0;
  Model.set_objective m (Model.Minimize [ (1.0, x); (1.0, y) ]);
  let s = Simplex.solve m in
  Alcotest.check lp_status "status" Simplex.Optimal s.status;
  check_float "objective" 2.0 s.objective

let test_lp_infeasible () =
  let m = Model.create () in
  let x = Model.add_var m ~upper:2.0 "x" in
  Model.add_constr m [ (1.0, x) ] Model.Ge 5.0;
  Model.set_objective m (Model.Maximize [ (1.0, x) ]);
  Alcotest.check lp_status "status" Simplex.Infeasible (Simplex.solve m).status

let test_lp_unbounded () =
  let m = Model.create () in
  let x = Model.add_var m "x" in
  Model.add_constr m [ (1.0, x) ] Model.Ge 1.0;
  Model.set_objective m (Model.Maximize [ (1.0, x) ]);
  Alcotest.check lp_status "status" Simplex.Unbounded (Simplex.solve m).status

let test_lp_negative_lower_bounds () =
  (* max x st -3 <= x <= -1 -> -1 *)
  let m = Model.create () in
  let x = Model.add_var m ~lower:(-3.0) ~upper:(-1.0) "x" in
  Model.set_objective m (Model.Maximize [ (1.0, x) ]);
  let s = Simplex.solve m in
  Alcotest.check lp_status "status" Simplex.Optimal s.status;
  check_float "objective" (-1.0) s.objective

let test_lp_equality_infeasible () =
  let m = Model.create () in
  let x = Model.add_var m ~upper:1.0 "x" in
  Model.add_constr m [ (1.0, x) ] Model.Eq 3.0;
  Model.set_objective m (Model.Maximize [ (1.0, x) ]);
  Alcotest.check lp_status "status" Simplex.Infeasible (Simplex.solve m).status

let test_lp_degenerate () =
  (* Multiple constraints meeting at a vertex; should still terminate. *)
  let m = Model.create () in
  let x = Model.add_var m "x" in
  let y = Model.add_var m "y" in
  Model.add_constr m [ (1.0, x); (1.0, y) ] Model.Le 1.0;
  Model.add_constr m [ (1.0, x) ] Model.Le 1.0;
  Model.add_constr m [ (1.0, y) ] Model.Le 1.0;
  Model.add_constr m [ (2.0, x); (1.0, y) ] Model.Le 2.0;
  Model.set_objective m (Model.Maximize [ (1.0, x); (1.0, y) ]);
  let s = Simplex.solve m in
  Alcotest.check lp_status "status" Simplex.Optimal s.status;
  check_float "objective" 1.0 s.objective

let test_lp_feasible_point () =
  (* The returned point always satisfies the model. *)
  let m = Model.create () in
  let x = Model.add_var m ~upper:10.0 "x" in
  let y = Model.add_var m ~upper:10.0 "y" in
  let z = Model.add_var m ~upper:10.0 "z" in
  Model.add_constr m [ (2.0, x); (1.0, y); (3.0, z) ] Model.Le 20.0;
  Model.add_constr m [ (1.0, x); (2.0, y); (1.0, z) ] Model.Ge 4.0;
  Model.add_constr m [ (1.0, x); (-1.0, y) ] Model.Eq 1.0;
  Model.set_objective m (Model.Maximize [ (5.0, x); (4.0, y); (3.0, z) ]);
  let s = Simplex.solve m in
  Alcotest.check lp_status "status" Simplex.Optimal s.status;
  Alcotest.(check bool) "feasible" true (Model.check_feasible m s.x)

let test_milp_knapsack () =
  let m = Model.create () in
  let a = Model.add_var m ~integer:true ~upper:1.0 "a" in
  let b = Model.add_var m ~integer:true ~upper:1.0 "b" in
  let c = Model.add_var m ~integer:true ~upper:1.0 "c" in
  Model.add_constr m [ (1.0, a); (1.0, b); (1.0, c) ] Model.Le 2.0;
  Model.add_constr m [ (5.0, a); (4.0, b); (1.0, c) ] Model.Le 8.0;
  Model.set_objective m (Model.Maximize [ (10.0, a); (6.0, b); (4.0, c) ]);
  (* count <= 2 and weight <= 8 exclude a+b (weight 9); optimum is a+c. *)
  let s = Milp.solve m in
  Alcotest.(check bool) "optimal" true (s.status = Milp.Optimal);
  check_float "objective" 14.0 s.objective;
  Alcotest.(check bool) "integral" true (Model.check_integral m s.x)

let test_milp_vs_enumeration () =
  (* Random small binary programs: B&B must match exhaustive search. *)
  let rng = Pb_util.Prng.create 99 in
  for _trial = 1 to 25 do
    let n = 6 in
    let m = Model.create () in
    let vars =
      Array.init n (fun i ->
          Model.add_var m ~integer:true ~upper:1.0 (Printf.sprintf "v%d" i))
    in
    let weights = Array.init n (fun _ -> float_of_int (Pb_util.Prng.int_in rng 1 9)) in
    let values = Array.init n (fun _ -> float_of_int (Pb_util.Prng.int_in rng 1 9)) in
    let budget = float_of_int (Pb_util.Prng.int_in rng 5 25) in
    Model.add_constr m
      (Array.to_list (Array.mapi (fun i v -> (weights.(i), v)) vars))
      Model.Le budget;
    Model.add_constr m
      (Array.to_list (Array.map (fun v -> (1.0, v)) vars))
      Model.Ge 1.0;
    Model.set_objective m
      (Model.Maximize (Array.to_list (Array.mapi (fun i v -> (values.(i), v)) vars)));
    let s = Milp.solve m in
    (* exhaustive reference *)
    let best = ref neg_infinity in
    for mask = 1 to (1 lsl n) - 1 do
      let w = ref 0.0 and v = ref 0.0 in
      for i = 0 to n - 1 do
        if mask land (1 lsl i) <> 0 then begin
          w := !w +. weights.(i);
          v := !v +. values.(i)
        end
      done;
      if !w <= budget && !v > !best then best := !v
    done;
    if !best = neg_infinity then
      Alcotest.(check bool) "infeasible detected" true (s.status = Milp.Infeasible)
    else begin
      Alcotest.(check bool) "optimal" true (s.status = Milp.Optimal);
      check_float "matches enumeration" !best s.objective
    end
  done

let test_milp_integer_general () =
  (* Non-binary integers: max x + y, x <= 2.5, y <= 3.7, x,y int -> 5 *)
  let m = Model.create () in
  let x = Model.add_var m ~integer:true ~upper:2.5 "x" in
  let y = Model.add_var m ~integer:true ~upper:3.7 "y" in
  Model.set_objective m (Model.Maximize [ (1.0, x); (1.0, y) ]);
  let s = Milp.solve m in
  check_float "objective" 5.0 s.objective

let test_milp_fractional_lp_relaxation () =
  (* LP relaxation is fractional; MILP must branch: max x+y st
     2x+2y <= 3, binary -> 1 (LP gives 1.5). *)
  let m = Model.create () in
  let x = Model.add_var m ~integer:true ~upper:1.0 "x" in
  let y = Model.add_var m ~integer:true ~upper:1.0 "y" in
  Model.add_constr m [ (2.0, x); (2.0, y) ] Model.Le 3.0;
  Model.set_objective m (Model.Maximize [ (1.0, x); (1.0, y) ]);
  let s = Milp.solve m in
  check_float "objective" 1.0 s.objective;
  Alcotest.(check bool) "branched" true (s.nodes >= 2)

let test_milp_infeasible () =
  let m = Model.create () in
  let x = Model.add_var m ~integer:true ~upper:1.0 "x" in
  Model.add_constr m [ (1.0, x) ] Model.Ge 2.0;
  Model.set_objective m (Model.Maximize [ (1.0, x) ]);
  Alcotest.(check bool) "infeasible" true
    ((Milp.solve m).status = Milp.Infeasible)

let test_milp_minimize () =
  (* min 3x + 2y st x + y >= 3, binary-ish ints in [0,5] -> y=3, obj 6 *)
  let m = Model.create () in
  let x = Model.add_var m ~integer:true ~upper:5.0 "x" in
  let y = Model.add_var m ~integer:true ~upper:5.0 "y" in
  Model.add_constr m [ (1.0, x); (1.0, y) ] Model.Ge 3.0;
  Model.set_objective m (Model.Minimize [ (3.0, x); (2.0, y) ]);
  let s = Milp.solve m in
  check_float "objective" 6.0 s.objective

let test_milp_bounds_restored () =
  let m = Model.create () in
  let x = Model.add_var m ~integer:true ~upper:1.0 "x" in
  let y = Model.add_var m ~integer:true ~upper:1.0 "y" in
  Model.add_constr m [ (2.0, x); (2.0, y) ] Model.Le 3.0;
  Model.set_objective m (Model.Maximize [ (1.0, x); (1.0, y) ]);
  ignore (Milp.solve m);
  Alcotest.(check (pair (float 0.0) (float 0.0))) "x bounds" (0.0, 1.0)
    (Model.bounds m x);
  Alcotest.(check (pair (float 0.0) (float 0.0))) "y bounds" (0.0, 1.0)
    (Model.bounds m y)

let test_model_validation () =
  let m = Model.create () in
  Alcotest.check_raises "bad bounds"
    (Invalid_argument "Model.add_var x: lower 2 > upper 1") (fun () ->
      ignore (Model.add_var m ~lower:2.0 ~upper:1.0 "x"))

let test_check_feasible () =
  let m = Model.create () in
  let x = Model.add_var m ~upper:1.0 "x" in
  Model.add_constr m [ (1.0, x) ] Model.Ge 0.5;
  Alcotest.(check bool) "ok" true (Model.check_feasible m [| 0.7 |]);
  Alcotest.(check bool) "violates constr" false (Model.check_feasible m [| 0.2 |]);
  Alcotest.(check bool) "violates bound" false (Model.check_feasible m [| 1.5 |])

(* ---- governance ------------------------------------------------------- *)

module Gov = Pb_util.Gov

(* A strongly correlated knapsack (value = weight + 1, capacity at half
   the total weight): B&B needs hundreds of thousands of nodes to close
   the gap, so a cancellation fired a few hundred nodes in always lands
   long before the proof does. *)
let hard_knapsack n =
  let m = Model.create () in
  let w = Array.init n (fun i -> float_of_int (20 + ((i * 37) mod 51))) in
  let vars =
    Array.init n (fun i ->
        Model.add_var m ~integer:true ~upper:1.0 (Printf.sprintf "x%d" i))
  in
  let total = Array.fold_left ( +. ) 0.0 w in
  Model.add_constr m
    (Array.to_list (Array.mapi (fun i v -> (w.(i), v)) vars))
    Model.Le (Float.of_int (int_of_float (total /. 2.0)) +. 0.5);
  Model.set_objective m
    (Model.Maximize
       (Array.to_list (Array.mapi (fun i v -> (w.(i) +. 1.0, v)) vars)));
  m

let test_milp_cancel_mid_search () =
  let m = hard_knapsack 24 in
  let gov = Gov.create ~milp_nodes:200_000 () in
  let finished = Atomic.make false in
  (* cancel from another thread once the search is demonstrably deep *)
  let canceller =
    Thread.create
      (fun () ->
        while
          (not (Atomic.get finished))
          && Gov.budget_left gov Gov.Milp_nodes > Some (200_000 - 200)
        do
          Thread.yield ()
        done;
        Gov.cancel gov)
      ()
  in
  let s = Milp.solve ~gov m in
  Atomic.set finished true;
  Thread.join canceller;
  Alcotest.(check bool) "cancelled mid-search" true (s.status = Milp.Feasible);
  Alcotest.(check bool) "kept the best incumbent" true
    (Array.length s.x = Model.num_vars m);
  Alcotest.(check bool) "incumbent is feasible" true (Model.check_feasible m s.x);
  Alcotest.(check bool) "made progress before the cancel" true (s.nodes >= 200)

let test_milp_precancelled_returns_immediately () =
  let m = hard_knapsack 24 in
  let gov = Gov.create () in
  Gov.cancel gov;
  let s = Milp.solve ~gov m in
  Alcotest.(check bool) "no proof claim" true (s.status = Milp.Feasible);
  Alcotest.(check int) "no nodes explored" 0 s.nodes

let test_milp_deadline_returns_quickly () =
  let m = hard_knapsack 24 in
  let t0 = Unix.gettimeofday () in
  let s = Milp.solve ~gov:(Gov.create ~deadline_in:0.05 ()) m in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "deadline stop" true (s.status = Milp.Feasible);
  (* the full solve takes seconds; a 50ms deadline must cut it well
     short (generous bound for slow CI) *)
  Alcotest.(check bool) "returned quickly" true (elapsed < 1.0);
  Alcotest.(check bool) "best incumbent returned" true
    (Model.check_feasible m s.x)

(* ---- warm start --------------------------------------------------- *)

module Prng = Pb_util.Prng
module Metrics = Pb_obs.Metrics

let test_fixed_columns_never_enter () =
  (* Fixed columns with the most attractive reduced cost cannot move, so
     pricing must skip them: adding them leaves the pivot count alone. *)
  let build ~fixed =
    let m = Model.create () in
    let x = Model.add_var m ~upper:3.0 "x" in
    let y = Model.add_var m "y" in
    let z = Model.add_var m ~upper:5.0 "z" in
    let pinned =
      List.init fixed (fun i ->
          Model.add_var m ~lower:0.0 ~upper:0.0 (Printf.sprintf "f%d" i))
    in
    let f = List.map (fun v -> (1.0, v)) pinned in
    Model.add_constr m ([ (1.0, x); (1.0, y); (1.0, z) ] @ f) Model.Le 6.0;
    Model.add_constr m ([ (1.0, x); (3.0, y) ] @ f) Model.Le 6.0;
    Model.add_constr m [ (1.0, y); (1.0, z) ] Model.Ge 1.0;
    Model.set_objective m
      (Model.Maximize
         ([ (3.0, x); (2.0, y); (1.0, z) ] @ List.map (fun v -> (100.0, v)) pinned));
    m
  in
  let base = Simplex.solve (build ~fixed:0) in
  let more = Simplex.solve (build ~fixed:6) in
  Alcotest.check lp_status "status" Simplex.Optimal more.status;
  check_float "same optimum" base.objective more.objective;
  Alcotest.(check int) "no extra pivots" base.iterations more.iterations

(* A random bounded LP: 20-60 integer-bounded columns, 2-8 rows of mixed
   sense, feasible at a random interior point. *)
let random_lp rng =
  let ncols = Prng.int_in rng 20 60 and nrows = Prng.int_in rng 2 8 in
  let m = Model.create () in
  let point = Array.make ncols 0.0 in
  let vars =
    Array.init ncols (fun j ->
        let lo = float_of_int (Prng.int_in rng (-2) 1) in
        let hi = lo +. float_of_int (Prng.int_in rng 1 4) in
        point.(j) <- lo +. Prng.float rng (hi -. lo);
        Model.add_var m ~integer:true ~lower:lo ~upper:hi (Printf.sprintf "x%d" j))
  in
  for _ = 1 to nrows do
    let coefs =
      Array.init ncols (fun _ ->
          if Prng.int rng 3 = 0 then 0.0 else float_of_int (Prng.int_in rng (-9) 9))
    in
    let lhs = ref 0.0 in
    Array.iteri (fun j c -> lhs := !lhs +. (c *. point.(j))) coefs;
    let room = float_of_int (Prng.int_in rng 0 10) in
    let sense, rhs =
      match Prng.int rng 3 with
      | 0 -> (Model.Le, !lhs +. room)
      | 1 -> (Model.Ge, !lhs -. room)
      | _ -> (Model.Eq, !lhs)
    in
    Model.add_constr m
      (Array.to_list (Array.mapi (fun j c -> (c, vars.(j))) coefs))
      sense rhs
  done;
  let terms =
    Array.to_list
      (Array.map (fun v -> (float_of_int (Prng.int_in rng (-9) 9), v)) vars)
  in
  Model.set_objective m
    (if Prng.bool rng then Model.Maximize terms else Model.Minimize terms);
  m

(* Tighten one to three bounds the way branch-and-bound does: round a
   fractional value down or up, shave an integral bound, and now and then
   cross a domain so the node is infeasible. *)
let tighten rng m (x : float array) =
  for _ = 1 to Prng.int_in rng 1 3 do
    let j = Prng.int rng (Model.num_vars m) in
    let lo, hi = Model.bounds m j in
    let v = if Array.length x > j then x.(j) else lo in
    if Prng.int rng 8 = 0 then Model.set_bounds m j (hi +. 1.0) hi
    else if Float.abs (v -. Float.round v) > 1e-6 then
      if Prng.bool rng then Model.set_bounds m j lo (Float.floor v)
      else Model.set_bounds m j (Float.ceil v) hi
    else if hi > lo then
      if Prng.bool rng then Model.set_bounds m j (lo +. 1.0) hi
      else Model.set_bounds m j lo (hi -. 1.0)
  done

let same_answer m (warm : Simplex.solution) (cold : Simplex.solution) =
  warm.status = cold.status
  && (warm.status <> Simplex.Optimal
     || Float.abs (warm.objective -. cold.objective)
        <= 1e-6 *. (1.0 +. Float.abs cold.objective)
        && Model.check_feasible ~eps:1e-5 m warm.x)

let prop_warm_matches_cold =
  QCheck.Test.make ~count:150 ~long_factor:20
    ~name:"simplex: warm re-solve = cold solve after bound changes"
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Prng.create seed in
      let m = random_lp rng in
      let st, root = Simplex.start m in
      let snapshot = Simplex.basis st in
      let root_bounds = Array.init (Model.num_vars m) (Model.bounds m) in
      let ok = ref (same_answer m root (Simplex.solve m)) in
      let last = ref (Array.copy root.x) in
      (* A dive: each node re-solves in place from the previous basis. *)
      for _ = 1 to 4 do
        tighten rng m !last;
        let warm = Simplex.resolve st in
        ok := !ok && same_answer m warm (Simplex.solve m);
        if warm.status = Simplex.Optimal then last := Array.copy warm.x
      done;
      (* A backtrack: refactor the root basis under the deepest bounds,
         then under the root's own. *)
      ok := !ok && same_answer m (Simplex.resolve ~from:snapshot st) (Simplex.solve m);
      Array.iteri (fun j (lo, hi) -> Model.set_bounds m j lo hi) root_bounds;
      let again = Simplex.resolve ~from:snapshot st in
      !ok && same_answer m again root)

(* Small integer programs (binary and REPEAT-style [0, k] domains, mixed
   row senses): branch-and-bound must match exhaustive enumeration. *)
let prop_milp_matches_enumeration =
  QCheck.Test.make ~count:100 ~long_factor:20
    ~name:"milp: REPEAT and binary models = enumeration"
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Prng.create seed in
      let n = Prng.int_in rng 2 5 and k = Prng.int_in rng 1 3 in
      let m = Model.create () in
      let vars =
        Array.init n (fun i ->
            Model.add_var m ~integer:true ~upper:(float_of_int k)
              (Printf.sprintf "v%d" i))
      in
      let rows =
        List.init (Prng.int_in rng 1 3) (fun _ ->
            let coefs = Array.init n (fun _ -> float_of_int (Prng.int_in rng (-3) 9)) in
            let rhs = float_of_int (Prng.int_in rng 0 (5 * n * k)) in
            let sense = if Prng.int rng 4 = 0 then Model.Ge else Model.Le in
            Model.add_constr m
              (Array.to_list (Array.mapi (fun i c -> (c, vars.(i))) coefs))
              sense rhs;
            (coefs, sense, rhs))
      in
      let values = Array.init n (fun _ -> float_of_int (Prng.int_in rng (-2) 9)) in
      Model.set_objective m
        (Model.Maximize (Array.to_list (Array.mapi (fun i c -> (c, vars.(i))) values)));
      let s = Milp.solve m in
      let best = ref None and point = Array.make n 0 in
      let rec enumerate i =
        if i = n then begin
          let dot c = Array.fold_left ( +. ) 0.0 (Array.mapi (fun j p -> c.(j) *. float_of_int p) point) in
          if
            List.for_all
              (fun (c, sense, rhs) ->
                match sense with Model.Ge -> dot c >= rhs | _ -> dot c <= rhs)
              rows
          then
            let v = dot values in
            match !best with Some b when b >= v -> () | _ -> best := Some v
        end
        else
          for p = 0 to k do
            point.(i) <- p;
            enumerate (i + 1)
          done
      in
      enumerate 0;
      match (!best, s.Milp.status) with
      | None, Milp.Infeasible -> true
      | Some b, Milp.Optimal -> Float.abs (s.Milp.objective -. b) < 1e-6
      | _ -> false)

(* Ranked enumeration through the engine: each answer adds a no-good cut
   ({!Pb_core.Translate.exclude}) before the next solve, and a warm state
   carried over would miss it. The answers
   must be the best packages, best first: the SUM row rejects the empty
   package, so the enumeration skips it too. *)
let prop_next_packages_ranks_enumeration =
  QCheck.Test.make ~count:60 ~long_factor:10
    ~name:"next_packages: successive answers = ranked enumeration"
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Prng.create seed in
      let n = Prng.int_in rng 3 6 in
      let w = Array.init n (fun _ -> Prng.int_in rng 1 9) in
      let values = Array.init n (fun _ -> Prng.int_in rng 1 9) in
      let budget = Prng.int_in rng 5 20 in
      let db = Pb_sql.Database.create () in
      let open Pb_relation in
      Pb_sql.Database.put db "items"
        (Relation.create
           (Schema.make
              [
                { Schema.name = "id"; ty = Value.T_int };
                { Schema.name = "v"; ty = Value.T_int };
                { Schema.name = "w"; ty = Value.T_int };
              ])
           (List.init n (fun i -> [| Value.Int (i + 1); Value.Int values.(i); Value.Int w.(i) |])));
      let query =
        Pb_paql.Parser.parse
          (Printf.sprintf
             "SELECT PACKAGE(i) AS p FROM items i SUCH THAT SUM(p.w) <= %d MAXIMIZE SUM(p.v)"
             budget)
      in
      let objs = ref [] in
      for mask = 1 to (1 lsl n) - 1 do
        let wt = ref 0 and v = ref 0 in
        for i = 0 to n - 1 do
          if mask land (1 lsl i) <> 0 then begin
            wt := !wt + w.(i);
            v := !v + values.(i)
          end
        done;
        if !wt <= budget then objs := float_of_int !v :: !objs
      done;
      let k = 4 in
      let expect = List.filteri (fun i _ -> i < k) (List.sort (fun a b -> compare b a) !objs) in
      let got =
        List.map
          (fun p -> Option.get (Pb_paql.Semantics.objective_value ~db query p))
          (Pb_core.Engine.next_packages ~limit:k db query)
      in
      List.length got = List.length expect
      && List.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) got expect)

let test_warm_start_counters () =
  let value name = int_of_float (List.assoc name (Metrics.snapshot ())) in
  let names =
    [
      "pb_lp_warm_solves_total";
      "pb_lp_refactors_total";
      "pb_lp_dual_pivots_total";
    ]
  in
  let before = List.map value names in
  let fallbacks0 = value "pb_lp_cold_fallbacks_total" in
  let s = Milp.solve (hard_knapsack 14) in
  Alcotest.(check bool) "optimal" true (s.status = Milp.Optimal);
  List.iter2
    (fun name b ->
      Alcotest.(check bool) (name ^ " moved") true (value name > b))
    names before;
  let warm = value "pb_lp_warm_solves_total" - List.hd before in
  Alcotest.(check int) "one warm solve per non-root node" (s.nodes - 1) warm;
  Alcotest.(check bool) "fallbacks are rare" true
    (100 * (value "pb_lp_cold_fallbacks_total" - fallbacks0) <= warm)

(* REPEAT-style [0, k] columns under a few knapsack rows, where the
   primal simplex's ratio test can end in a bound flip. *)
let repeat_model seed =
  let rng = Prng.create seed in
  let n = 12 + Prng.int rng 12 and k = Prng.int_in rng 1 4 in
  let m = Model.create () in
  let vars =
    Array.init n (fun i ->
        Model.add_var m ~integer:true ~upper:(float_of_int k) (Printf.sprintf "v%d" i))
  in
  for _ = 1 to Prng.int_in rng 2 4 do
    let coefs = Array.init n (fun _ -> float_of_int (Prng.int_in rng 1 30)) in
    let rhs = float_of_int (Prng.int_in rng (n * k) (6 * n * k)) +. 0.5 in
    Model.add_constr m
      (Array.to_list (Array.mapi (fun i c -> (c, vars.(i))) coefs))
      Model.Le rhs
  done;
  let values = Array.init n (fun _ -> float_of_int (Prng.int_in rng 1 40)) in
  Model.set_objective m
    (Model.Maximize (Array.to_list (Array.mapi (fun i c -> (c, vars.(i))) values)));
  m

(* Branch-and-bound node and pivot counts on a fixed set of models,
   recorded from a solver that recomputed the reduced costs after every
   bound flip. A flip leaves them bit-identical, so skipping that
   recompute must not move a single pivot; any change to the pivot
   sequence or the search shows up here. *)
let test_milp_counts_pinned () =
  let models =
    [ hard_knapsack 12; hard_knapsack 16 ]
    @ List.init 8 (fun s -> repeat_model (s + 1))
    @ List.init 6 (fun s -> random_lp (Prng.create (100 + s)))
  in
  let pinned =
    [ (2027, 2868); (1885, 2870); (215, 418); (111, 339); (41, 107); (55, 153);
      (25, 79); (23, 59); (67, 159); (85, 218); (3000, 6609); (3000, 6650);
      (661, 1366); (3000, 6917); (3000, 11220); (1917, 7430) ]
  in
  List.iteri
    (fun i (m, (nodes, pivots)) ->
      let s = Milp.solve ~gov:(Pb_util.Gov.create ~milp_nodes:3000 ()) m in
      Alcotest.(check (pair int int))
        (Printf.sprintf "model %d: nodes, pivots" i)
        (nodes, pivots) (s.Milp.nodes, s.Milp.lp_iterations))
    (List.combine models pinned)

(* The dual certificate behind SketchRefine's LP front, on small
   bounded models with columns in [0, k] and mixed row senses: from the
   final basis, L(y) bounds every feasible integer point, equals the LP
   optimum, and L(y) + d_j bounds every feasible point with x_j >= 1.
   The same LP loaded as dense rows ({!Simplex.start_dense}) reaches the
   same optimum and the same bound. *)
let prop_dual_certificate =
  QCheck.Test.make ~count:200 ~long_factor:20
    ~name:"simplex: dual bound certifies LP optimum and integer points"
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Prng.create seed in
      let n = Prng.int_in rng 2 5 and k = Prng.int_in rng 1 3 in
      let kf = float_of_int k in
      let m = Model.create () in
      let vars =
        Array.init n (fun i ->
            Model.add_var m ~integer:true ~upper:kf (Printf.sprintf "v%d" i))
      in
      let rows =
        Array.init (Prng.int_in rng 1 3) (fun _ ->
            let coefs = Array.init n (fun _ -> float_of_int (Prng.int_in rng (-3) 9)) in
            let rhs = float_of_int (Prng.int_in rng 0 (4 * n * k)) in
            let sense =
              match Prng.int rng 5 with 0 -> Model.Ge | 1 -> Model.Eq | _ -> Model.Le
            in
            Model.add_constr m
              (Array.to_list (Array.mapi (fun i c -> (c, vars.(i))) coefs))
              sense rhs;
            (coefs, sense, rhs))
      in
      let values = Array.init n (fun _ -> float_of_int (Prng.int_in rng (-4) 9)) in
      let maximize = Prng.bool rng in
      let terms = Array.to_list (Array.mapi (fun i c -> (c, vars.(i))) values) in
      Model.set_objective m (if maximize then Model.Maximize terms else Model.Minimize terms);
      let st, lp = Simplex.start m in
      let dense_st, dense_lp =
        Simplex.start_dense
          ~rows:(Array.map (fun (c, _, _) -> c) rows)
          ~senses:(Array.map (fun (_, s, _) -> s) rows)
          ~rhs:(Array.map (fun (_, _, r) -> r) rows)
          ~maximize ~objective:values ~lower:0.0 ~upper:kf ()
      in
      let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b) in
      if lp.Simplex.status <> dense_lp.Simplex.status then
        QCheck.Test.fail_reportf "model and dense loads disagree on the status"
      else if lp.Simplex.status <> Simplex.Optimal then true
      else begin
        let own v = if maximize then v else -.v in
        let cert = Simplex.dual_bound st in
        let dense_cert = Simplex.dual_bound dense_st in
        if not (close cert.Simplex.value (own lp.Simplex.objective)) then
          QCheck.Test.fail_reportf "L(y) = %.17g but the LP optimum is %.17g"
            cert.Simplex.value (own lp.Simplex.objective);
        if not (close dense_lp.Simplex.objective lp.Simplex.objective
                && close dense_cert.Simplex.value cert.Simplex.value)
        then QCheck.Test.fail_reportf "dense load: LP %.17g, L(y) %.17g"
               dense_lp.Simplex.objective dense_cert.Simplex.value;
        let point = Array.make n 0 in
        let dot c = Array.fold_left ( +. ) 0.0 (Array.mapi (fun j p -> c.(j) *. float_of_int p) point) in
        let slack = 1e-9 *. Float.max 1.0 (Float.abs cert.Simplex.value) in
        let ok = ref true in
        let rec enumerate i =
          if i = n then begin
            if
              Array.for_all
                (fun (c, sense, rhs) ->
                  match sense with
                  | Model.Ge -> dot c >= rhs
                  | Model.Le -> dot c <= rhs
                  | Model.Eq -> dot c = rhs)
                rows
            then begin
              let v = own (dot values) in
              if v > cert.Simplex.value +. slack then ok := false;
              Array.iteri
                (fun j p ->
                  if p >= 1 && v > cert.Simplex.value +. cert.Simplex.reduced_costs.(j) +. slack
                  then ok := false)
                point
            end
          end
          else
            for p = 0 to k do
              point.(i) <- p;
              enumerate (i + 1)
            done
        in
        enumerate 0;
        !ok
      end)

(* SketchRefine's warm LP front: a dense LP re-solved from its previous
   basis under a sequence of right-hand-side changes, some of them
   infeasible, must answer like a cold solve of the same LP each time:
   the same status and the same optimum. The warm basis's dual bound is
   still a bound on that optimum. *)
let prop_rhs_warm_matches_cold =
  QCheck.Test.make ~count:150 ~long_factor:20
    ~name:"simplex: right-hand-side re-solve = cold solve, sound dual bound"
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Prng.create seed in
      let n = Prng.int_in rng 2 30 and m = Prng.int_in rng 1 5 in
      let k = float_of_int (Prng.int_in rng 1 3) in
      let rows =
        Array.init m (fun _ ->
            Array.init n (fun _ ->
                if Prng.int rng 4 = 0 then 0.0 else float_of_int (Prng.int_in rng (-5) 20)))
      in
      let senses =
        Array.init m (fun _ ->
            match Prng.int rng 4 with 0 -> Model.Ge | 1 -> Model.Eq | _ -> Model.Le)
      in
      (* Right-hand sides around the row's value at a random point of the
         box, pushed past the row's reach now and then. *)
      let draw_rhs () =
        let point = Array.init n (fun _ -> Prng.float rng k) in
        Array.map
          (fun row ->
            let v = ref 0.0 in
            Array.iteri (fun j c -> v := !v +. (c *. point.(j))) row;
            let far = if Prng.int rng 5 = 0 then Prng.int_in rng (-2000) 2000 else 0 in
            Float.round !v +. float_of_int (Prng.int_in rng (-6) 6 + far))
          rows
      in
      let objective = Array.init n (fun _ -> float_of_int (Prng.int_in rng (-9) 9)) in
      let maximize = Prng.bool rng in
      let own v = if maximize then v else -.v in
      let solve_cold rhs =
        Simplex.start_dense ~rows ~senses ~rhs ~maximize ~objective ~lower:0.0 ~upper:k ()
      in
      let st, _ = solve_cold (draw_rhs ()) in
      for step = 1 to 6 do
        let rhs = draw_rhs () in
        let warm = Simplex.resolve_rhs st rhs in
        let _, cold = solve_cold rhs in
        let tol = 1e-6 *. (1.0 +. Float.abs cold.Simplex.objective) in
        if warm.Simplex.status <> cold.Simplex.status then
          QCheck.Test.fail_reportf "step %d: warm and cold statuses differ" step;
        if cold.Simplex.status = Simplex.Optimal then begin
          if Float.abs (warm.Simplex.objective -. cold.Simplex.objective) > tol then
            QCheck.Test.fail_reportf "step %d: warm optimum %.17g, cold %.17g" step
              warm.Simplex.objective cold.Simplex.objective;
          let bound = (Simplex.dual_bound st).Simplex.value in
          if bound < own cold.Simplex.objective -. tol then
            QCheck.Test.fail_reportf "step %d: warm dual bound %.17g below the optimum %.17g"
              step bound (own cold.Simplex.objective)
        end
      done;
      true)

let suite =
  [
    Alcotest.test_case "lp basic" `Quick test_lp_basic;
    Alcotest.test_case "lp minimize + equality" `Quick test_lp_minimize;
    Alcotest.test_case "lp infeasible" `Quick test_lp_infeasible;
    Alcotest.test_case "lp unbounded" `Quick test_lp_unbounded;
    Alcotest.test_case "lp negative bounds" `Quick test_lp_negative_lower_bounds;
    Alcotest.test_case "lp equality infeasible" `Quick test_lp_equality_infeasible;
    Alcotest.test_case "lp degenerate vertex" `Quick test_lp_degenerate;
    Alcotest.test_case "lp returns feasible point" `Quick test_lp_feasible_point;
    Alcotest.test_case "milp knapsack" `Quick test_milp_knapsack;
    Alcotest.test_case "milp vs enumeration" `Quick test_milp_vs_enumeration;
    Alcotest.test_case "milp general integers" `Quick test_milp_integer_general;
    Alcotest.test_case "milp fractional relaxation" `Quick
      test_milp_fractional_lp_relaxation;
    Alcotest.test_case "milp infeasible" `Quick test_milp_infeasible;
    Alcotest.test_case "milp minimize" `Quick test_milp_minimize;
    Alcotest.test_case "milp restores bounds" `Quick test_milp_bounds_restored;
    Alcotest.test_case "model validation" `Quick test_model_validation;
    Alcotest.test_case "check_feasible" `Quick test_check_feasible;
    Alcotest.test_case "milp cancel mid-search" `Quick
      test_milp_cancel_mid_search;
    Alcotest.test_case "milp pre-cancelled token" `Quick
      test_milp_precancelled_returns_immediately;
    Alcotest.test_case "milp deadline returns quickly" `Quick
      test_milp_deadline_returns_quickly;
    Alcotest.test_case "lp fixed columns never enter" `Quick
      test_fixed_columns_never_enter;
    Alcotest.test_case "milp warm-start counters" `Quick
      test_warm_start_counters;
    Alcotest.test_case "milp node and pivot counts pinned" `Quick
      test_milp_counts_pinned;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_warm_matches_cold;
        prop_milp_matches_enumeration;
        prop_next_packages_ranks_enumeration;
        prop_dual_certificate;
        prop_rhs_warm_matches_cold;
      ]
