(* Differential property tests across evaluation strategies: on random
   tiny instances, brute force (the oracle), ILP and SQL-generation must
   agree on feasibility and on the optimal objective value, and local
   search must only produce feasible packages that never beat the proven
   optimum. *)

module Gen = QCheck.Gen
module Value = Pb_relation.Value
module Relation = Pb_relation.Relation
module Schema = Pb_relation.Schema
module Parser = Pb_paql.Parser
module Engine = Pb_core.Engine

type direction = Max | Min | NoObj

type inst = {
  rows : (int * int) list;  (* (a, b) per tuple *)
  k : int;  (* cardinality between 1 and k *)
  bound : int option;  (* SUM(P.a) <= bound *)
  dir : direction;
}

let inst_gen : inst Gen.t =
  let open Gen in
  let* nrows = int_range 2 7 in
  let* rows = list_repeat nrows (pair (int_range 1 9) (int_range 0 9)) in
  let* k = int_range 1 3 in
  let* bound = opt (int_range 1 20) in
  let* dir = oneofl [ Max; Min; NoObj ] in
  return { rows; k; bound; dir }

let print_inst i =
  Printf.sprintf "rows=[%s] k=%d bound=%s dir=%s"
    (String.concat ";"
       (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) i.rows))
    i.k
    (match i.bound with None -> "-" | Some b -> string_of_int b)
    (match i.dir with Max -> "max" | Min -> "min" | NoObj -> "none")

let db_of i =
  let db = Pb_sql.Database.create () in
  let schema =
    Schema.make
      [
        { Schema.name = "id"; ty = Value.T_int };
        { Schema.name = "a"; ty = Value.T_int };
        { Schema.name = "b"; ty = Value.T_int };
      ]
  in
  let rows =
    List.mapi
      (fun idx (a, b) -> [| Value.Int (idx + 1); Value.Int a; Value.Int b |])
      i.rows
  in
  Pb_sql.Database.put db "t" (Relation.create schema rows);
  db

let query_of i =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "SELECT PACKAGE(R) AS P FROM t R SUCH THAT ";
  Buffer.add_string buf (Printf.sprintf "COUNT(*) BETWEEN 1 AND %d" i.k);
  (match i.bound with
  | Some b -> Buffer.add_string buf (Printf.sprintf " AND SUM(P.a) <= %d" b)
  | None -> ());
  (match i.dir with
  | Max -> Buffer.add_string buf " MAXIMIZE SUM(P.b)"
  | Min -> Buffer.add_string buf " MINIMIZE SUM(P.b)"
  | NoObj -> ());
  Buffer.contents buf

let evaluate i strategy =
  Engine.run ~strategy
    ~gov:(Pb_util.Gov.create ~milp_nodes:500_000 ())
    (db_of i)
    (Parser.parse (query_of i))

let oracle i = evaluate i (Engine.Brute_force { use_pruning = true })
let feasible (r : Engine.result) = Option.is_some r.package

let proven (r : Engine.result) =
  match r.proof with
  | Engine.Optimal | Engine.Infeasible -> true
  | Engine.Feasible | Engine.Cancelled -> false
let tol = 1e-6

let objectives_agree (a : Engine.result) (b : Engine.result) =
  match (a.objective, b.objective) with
  | Some x, Some y -> Float.abs (x -. y) <= tol
  | None, None -> true
  | _ -> false

(* Feasibility and optimal objective must match between the oracle and a
   competing exact strategy, whenever both runs carry a proof. *)
let check_exact name strategy ~skip =
  QCheck.Test.make ~count:60
    ~name:(Printf.sprintf "%s agrees with brute force" name)
    (QCheck.make ~print:print_inst inst_gen)
    (fun i ->
      let bf = oracle i in
      let other = evaluate i strategy in
      if (not (proven bf)) || (not (proven other)) || skip other
      then true
      else if feasible bf <> feasible other then
        QCheck.Test.fail_reportf "feasibility: bf=%b %s=%b on %s" (feasible bf)
          name (feasible other) (print_inst i)
      else if not (objectives_agree bf other) then
        QCheck.Test.fail_reportf "objective: bf=%s %s=%s on %s"
          (match bf.objective with
          | None -> "-"
          | Some v -> string_of_float v)
          name
          (match other.objective with
          | None -> "-"
          | Some v -> string_of_float v)
          (print_inst i)
      else true)

let prop_ilp = check_exact "ilp" Engine.Ilp ~skip:(fun _ -> false)

let prop_sqlgen =
  check_exact "sql-generation"
    (Engine.Sql_generation Pb_core.Sql_generate.default_params)
    ~skip:(fun (r : Engine.result) ->
      List.mem_assoc "not_applicable" r.stats)

let prop_pruning =
  check_exact "unpruned brute force"
    (Engine.Brute_force { use_pruning = false })
    ~skip:(fun _ -> false)

(* Local search is heuristic: any package it returns has already passed
   the engine's semantic re-check, so we assert the two things it can
   still get wrong relative to the oracle — inventing a package for an
   infeasible query, or "beating" the proven optimum. *)
let prop_local_search =
  QCheck.Test.make ~count:60 ~name:"local search feasible and never beats optimum"
    (QCheck.make ~print:print_inst inst_gen)
    (fun i ->
      let bf = oracle i in
      if not (proven bf) then true
      else
        let ls = evaluate i (Engine.Local_search Pb_core.Local_search.default_params) in
        if (not (feasible bf)) && feasible ls then
          QCheck.Test.fail_reportf
            "local search found a package on an infeasible query %s"
            (print_inst i)
        else
          match (i.dir, bf.objective, ls.objective) with
          | Max, Some opt, Some got when got > opt +. tol ->
              QCheck.Test.fail_reportf "ls beat the max optimum %g > %g on %s"
                got opt (print_inst i)
          | Min, Some opt, Some got when got < opt -. tol ->
              QCheck.Test.fail_reportf "ls beat the min optimum %g < %g on %s"
                got opt (print_inst i)
          | _ -> true)

(* The hybrid policy may pick any strategy, but its answer must carry the
   same objective as the oracle whenever it claims a proof. *)
let prop_hybrid =
  check_exact "hybrid" Engine.Hybrid ~skip:(fun (r : Engine.result) ->
      not (proven r))

(* Governance monotonicity: starving a run of resources may cost it the
   proof, or the package altogether — but whatever package it does
   return can never be BETTER than the unlimited run's proven optimum
   (every returned package passes the semantic oracle, so a "better"
   one would disprove the optimum). *)
let prop_gov_never_better =
  QCheck.Test.make ~count:60
    ~name:"a resource-limited run never beats the unlimited one"
    (QCheck.make
       ~print:(fun (i, nodes, cands) ->
         Printf.sprintf "%s milp_nodes=%d bf_candidates=%d" (print_inst i)
           nodes cands)
       Gen.(triple inst_gen (int_range 1 40) (int_range 1 30)))
    (fun (i, nodes, cands) ->
      let db = db_of i in
      let q = Parser.parse (query_of i) in
      let full = Engine.run ~gov:(Pb_util.Gov.unlimited ()) db q in
      let limited =
        Engine.run
          ~gov:(Pb_util.Gov.create ~milp_nodes:nodes ~bf_candidates:cands ())
          db q
      in
      if not (proven full) then true
      else if (not (feasible full)) && feasible limited then
        QCheck.Test.fail_reportf
          "limited run found a package on an infeasible query %s"
          (print_inst i)
      else
        match (i.dir, full.objective, limited.objective) with
        | Max, Some opt, Some got when got > opt +. tol ->
            QCheck.Test.fail_reportf
              "limited run beat the max optimum %g > %g on %s" got opt
              (print_inst i)
        | Min, Some opt, Some got when got < opt -. tol ->
            QCheck.Test.fail_reportf
              "limited run beat the min optimum %g < %g on %s" got opt
              (print_inst i)
        | _ -> true)

(* ---- SketchRefine oracle suite ---------------------------------------- *)

(* SketchRefine is heuristic-with-a-sound-bound, so the differential
   contract is three-fold, checked over random (instance, partition
   count) pairs against the brute-force oracle:

   1. every package it returns satisfies every constraint — validated
      through the compiled coefficients ([Coeffs.check]), not by asking
      another solver;
   2. whenever it claims a proof (Optimal / Infeasible), the claim
      agrees with the oracle;
   3. its reported bound really bounds the true optimum, so the true
      optimum always lies within the strategy's own reported gap of the
      returned objective. *)

let sr_params parts = { Pb_core.Sketch_refine.partitions = Some parts; fanout = 2 }

let print_sr (i, parts) = Printf.sprintf "%s partitions=%d" (print_inst i) parts

let sr_gen = Gen.pair inst_gen (Gen.int_range 1 5)

(* The strategy through the engine (LP front, then the pipeline when
   the front holds no proof), and the partition/sketch/refine pipeline
   alone with its outcome read as the engine would. *)
let sr_engine parts db c =
  Engine.run_coeffs
    ~gov:(Pb_util.Gov.create ~milp_nodes:500_000 ())
    ~strategy:(Engine.Sketch_refine (sr_params parts))
    db c

let sr_pipeline parts _db c : Engine.result =
  let out =
    Pb_core.Sketch_refine.pipeline ~params:(sr_params parts)
      ~pool:(Pb_par.Pool.get_default ())
      ~gov:(Pb_util.Gov.create ~milp_nodes:500_000 ())
      c
  in
  {
    package = out.best;
    objective = out.best_objective;
    proof =
      (if not out.proven_optimal then Engine.Feasible
       else if out.best = None then Engine.Infeasible
       else Engine.Optimal);
    strategy_used = "sketch-refine";
    elapsed = 0.0;
    stats = (if out.applicable then [] else [ ("not_applicable", out.reason) ]);
    progress = [];
  }

let prop_sketch_refine_valid_on ~name run =
  QCheck.Test.make ~count:60 ~long_factor:10 ~name
    (QCheck.make ~print:print_sr sr_gen)
    (fun (i, parts) ->
      let db = db_of i in
      let q = Parser.parse (query_of i) in
      let c = Pb_core.Coeffs.make db q in
      let (r : Engine.result) = run parts db c in
      if List.mem_assoc "not_applicable" r.stats then true
      else begin
        (match r.package with
        | Some pkg when not (Pb_core.Coeffs.check c pkg) ->
            QCheck.Test.fail_reportf
              "sketch-refine package violates a constraint on %s"
              (print_sr (i, parts))
        | _ -> ());
        let bf = oracle i in
        if not (proven bf) then true
        else if (not (feasible bf)) && feasible r then
          QCheck.Test.fail_reportf
            "sketch-refine found a package on an infeasible query %s"
            (print_sr (i, parts))
        else
          match r.proof with
          | Engine.Infeasible when feasible bf ->
              QCheck.Test.fail_reportf
                "sketch-refine claimed Infeasible on a feasible query %s"
                (print_sr (i, parts))
          | Engine.Optimal when not (objectives_agree bf r) ->
              QCheck.Test.fail_reportf
                "sketch-refine claimed Optimal at %s but bf says %s on %s"
                (match r.objective with
                | None -> "-"
                | Some v -> string_of_float v)
                (match bf.objective with
                | None -> "-"
                | Some v -> string_of_float v)
                (print_sr (i, parts))
          | _ -> (
              (* a heuristic answer can be suboptimal but never better
                 than the proven optimum *)
              match (i.dir, bf.objective, r.objective) with
              | Max, Some opt, Some got when got > opt +. tol ->
                  QCheck.Test.fail_reportf
                    "sketch-refine beat the max optimum %g > %g on %s" got opt
                    (print_sr (i, parts))
              | Min, Some opt, Some got when got < opt -. tol ->
                  QCheck.Test.fail_reportf
                    "sketch-refine beat the min optimum %g < %g on %s" got opt
                    (print_sr (i, parts))
              | _ -> true)
      end)

let prop_sketch_refine_valid =
  prop_sketch_refine_valid_on
    ~name:"sketch-refine packages valid (Coeffs.check); proofs agree with bf"
    sr_engine

let prop_pipeline_valid =
  prop_sketch_refine_valid_on
    ~name:"sketch-refine pipeline alone: packages valid; proofs agree with bf"
    sr_pipeline

(* The bound must truly bound, and the gap must truly contain: wherever
   the exact oracle ran to a proof, the true optimum is on the right
   side of [bound], hence within [gap * max(1, |objective|)] of the
   returned objective — the "within its own reported gap" guarantee. *)
let prop_sketch_refine_gap_on ~name solve =
  QCheck.Test.make ~count:60 ~long_factor:10 ~name
    (QCheck.make ~print:print_sr sr_gen)
    (fun (i, parts) ->
      let bf = oracle i in
      if not (proven bf) then true
      else
        let db = db_of i in
        let q = Parser.parse (query_of i) in
        let c = Pb_core.Coeffs.make db q in
        let (out : Pb_core.Sketch_refine.outcome) =
          solve ~params:(sr_params parts) ~pool:(Pb_par.Pool.get_default ())
            ~gov:(Pb_util.Gov.unlimited ()) c
        in
        if not out.applicable then true
        else begin
          (match out.best with
          | Some pkg when not (Pb_core.Coeffs.check c pkg) ->
              QCheck.Test.fail_reportf
                "search returned an invalid package on %s" (print_sr (i, parts))
          | _ -> ());
          if out.proven_optimal && out.best = None && feasible bf then
            QCheck.Test.fail_reportf
              "search proved infeasibility of a feasible query %s"
              (print_sr (i, parts))
          else
            match (i.dir, bf.objective, out.bound) with
            | Max, Some opt, Some b when opt > b +. tol ->
                QCheck.Test.fail_reportf
                  "bound %g below the true max optimum %g on %s" b opt
                  (print_sr (i, parts))
            | Min, Some opt, Some b when opt < b -. tol ->
                QCheck.Test.fail_reportf
                  "bound %g above the true min optimum %g on %s" b opt
                  (print_sr (i, parts))
            | _ -> (
                match (bf.objective, out.best_objective, out.gap) with
                | Some opt, Some v, Some g
                  when Float.abs (opt -. v)
                       > (g *. Float.max 1.0 (Float.abs v)) +. tol ->
                    QCheck.Test.fail_reportf
                      "true optimum %g outside reported gap %g of %g on %s"
                      opt g v (print_sr (i, parts))
                | _ -> true)
        end)

let prop_sketch_refine_gap =
  prop_sketch_refine_gap_on ~name:"sketch-refine bound and gap are sound"
    Pb_core.Sketch_refine.search

let prop_pipeline_gap =
  prop_sketch_refine_gap_on
    ~name:"sketch-refine pipeline alone: bound and gap are sound"
    Pb_core.Sketch_refine.pipeline

(* The LP front proves infeasibility only from an infeasible LP or an
   infeasible reduced ILP over the whole relation, so with budget to
   spare the strategy never ends empty-handed on a feasible query. The
   pipeline alone can: a sketch over representatives may find nothing
   although real packages exist. *)
let prop_search_finds_a_package =
  QCheck.Test.make ~count:60 ~long_factor:10
    ~name:"sketch-refine never ends without a package when bf finds one"
    (QCheck.make ~print:print_sr sr_gen)
    (fun (i, parts) ->
      let bf = oracle i in
      if not (feasible bf) then true
      else
        let db = db_of i in
        let c = Pb_core.Coeffs.make db (Parser.parse (query_of i)) in
        let out =
          Pb_core.Sketch_refine.search ~params:(sr_params parts)
            ~pool:(Pb_par.Pool.get_default ())
            ~gov:(Pb_util.Gov.unlimited ()) c
        in
        (not out.applicable) || out.best <> None
        || QCheck.Test.fail_reportf "no package although bf found one on %s"
             (print_sr (i, parts)))

(* Tables past the front's 300 kept at-lower columns, so its reduced
   ILP leaves columns out and the reduced-cost certificate decides:
   every proof the strategy claims must match whole-relation ILP, and
   no package may beat ILP's proven optimum. *)
type wide = { wrows : (int * int) array; klo : int; khi : int; cap : int; wmax : bool }

let wide_gen =
  let open Gen in
  let* n = int_range 320 520 in
  let* wrows = array_repeat n (pair (int_range 1 50) (int_range 0 200)) in
  let* klo = int_range 1 6 in
  let* span = int_range 0 6 in
  let* cap = int_range 5 160 in
  let* wmax = bool in
  return { wrows; klo; khi = klo + span; cap; wmax }

let wide_query w =
  Printf.sprintf
    "SELECT PACKAGE(R) AS P FROM t R SUCH THAT COUNT(*) BETWEEN %d AND %d AND \
     SUM(P.a) <= %d %s SUM(P.b)"
    w.klo w.khi w.cap (if w.wmax then "MAXIMIZE" else "MINIMIZE")

let prop_front_matches_ilp =
  QCheck.Test.make ~count:12 ~long_factor:5
    ~name:"sketch-refine LP front proofs match whole-relation ILP"
    (QCheck.make
       ~print:(fun w -> Printf.sprintf "%d rows: %s" (Array.length w.wrows) (wide_query w))
       wide_gen)
    (fun w ->
      let db =
        db_of { rows = Array.to_list w.wrows; k = 1; bound = None; dir = NoObj }
      in
      let c = Pb_core.Coeffs.make db (Parser.parse (wide_query w)) in
      let ilp = Engine.run_coeffs ~gov:(Pb_util.Gov.unlimited ()) ~strategy:Engine.Ilp db c in
      let sr =
        Engine.run_coeffs ~gov:(Pb_util.Gov.unlimited ())
          ~strategy:(Engine.Sketch_refine Pb_core.Sketch_refine.default_params)
          db c
      in
      let show (r : Engine.result) =
        Printf.sprintf "%s %s" (Engine.proof_to_string r.proof)
          (match r.objective with Some v -> string_of_float v | None -> "-")
      in
      let fail () =
        QCheck.Test.fail_reportf "ilp %s, sketch-refine %s [%s] on %s" (show ilp) (show sr)
          (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) sr.stats))
          (wide_query w)
      in
      (match sr.package with
      | Some pkg when not (Pb_core.Coeffs.check c pkg) -> fail ()
      | _ -> ());
      if not (proven ilp) then true
      else
        match (sr.proof, ilp.objective, sr.objective) with
        | Engine.Infeasible, _, _ when feasible ilp -> fail ()
        | Engine.Optimal, _, _ when not (objectives_agree ilp sr) -> fail ()
        | _, Some opt, Some got
          when (w.wmax && got > opt +. tol) || ((not w.wmax) && got < opt -. tol) ->
            fail ()
        | _ -> true)

(* The optimum hidden behind decoys, so the certificate has to refuse
   the first reduced optimum: 310-400 heavy rows (a = 30, c = 10, value
   ~305) that the LP ranks above every light row (a = 25, c = 0); SUM(c)
   admits one heavy row, SUM(a) cannot take a heavy and a light one, and
   the best package is two light rows. The first reduced ILP keeps the
   heavy rows and only the best light one, so it finds one heavy row;
   a front that certified it would claim a wrong optimum. *)
let decoy_gen =
  let open Gen in
  let* n_heavy = int_range 310 400 in
  let* n_light = int_range 2 8 in
  let* heavy = list_repeat n_heavy (map (fun b -> (30, 300 + b, 10)) (int_range 0 10)) in
  let* light = list_repeat n_light (map (fun b -> (25, 160 + b, 0)) (int_range 0 25)) in
  shuffle_l (((25, 200, 0) :: light) @ heavy)

let prop_front_refuses_decoys =
  QCheck.Test.make ~count:3 ~long_factor:5
    ~name:"sketch-refine LP front refuses a decoy reduced optimum"
    (QCheck.make ~print:(fun rows -> Printf.sprintf "%d rows" (List.length rows)) decoy_gen)
    (fun rows ->
      let db = Pb_sql.Database.create () in
      let schema =
        Schema.make
          [
            { Schema.name = "id"; ty = Value.T_int };
            { Schema.name = "a"; ty = Value.T_int };
            { Schema.name = "b"; ty = Value.T_int };
            { Schema.name = "c"; ty = Value.T_int };
          ]
      in
      Pb_sql.Database.put db "t"
        (Relation.create schema
           (List.mapi
              (fun i (a, b, c) -> [| Value.Int (i + 1); Value.Int a; Value.Int b; Value.Int c |])
              rows));
      let q =
        Parser.parse
          "SELECT PACKAGE(R) AS P FROM t R SUCH THAT COUNT(*) BETWEEN 1 AND 3 AND \
           SUM(P.a) <= 50 AND SUM(P.c) <= 10 MAXIMIZE SUM(P.b)"
      in
      let c = Pb_core.Coeffs.make db q in
      let ilp = Engine.run_coeffs ~gov:(Pb_util.Gov.unlimited ()) ~strategy:Engine.Ilp db c in
      let sr =
        Engine.run_coeffs ~gov:(Pb_util.Gov.unlimited ())
          ~strategy:(Engine.Sketch_refine Pb_core.Sketch_refine.default_params)
          db c
      in
      (ilp.proof = Engine.Optimal && sr.proof = Engine.Optimal && objectives_agree ilp sr)
      || QCheck.Test.fail_reportf "ilp %s %s, sketch-refine %s %s [%s]"
           (Engine.proof_to_string ilp.proof)
           (match ilp.objective with Some v -> string_of_float v | None -> "-")
           (Engine.proof_to_string sr.proof)
           (match sr.objective with Some v -> string_of_float v | None -> "-")
           (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) sr.stats)))

(* ---- warm LP front vs a cold one ------------------------------------- *)

(* An exploration session over one table: a base query, then tweaks that
   move only right-hand sides (the COUNT window and the SUM(P.a) cap),
   so every query after the first finds the previous one's basis in the
   front's cache. *)
type session = { table : (int * int) array; steps : (int * int * int) list; smax : bool }

let session_gen =
  let open Gen in
  let* n = int_range 40 480 in
  let* table = array_repeat n (pair (int_range 1 50) (int_range 0 200)) in
  let* steps = list_repeat 5 (triple (int_range 1 6) (int_range 1 6) (int_range 3 160)) in
  let* smax = bool in
  return { table; steps = List.map (fun (lo, span, cap) -> (lo, lo + span, cap)) steps; smax }

let session_query s (lo, hi, cap) =
  Printf.sprintf
    "SELECT PACKAGE(R) AS P FROM t R SUCH THAT COUNT(*) BETWEEN %d AND %d AND \
     SUM(P.a) <= %d %s SUM(P.b)"
    lo hi cap (if s.smax then "MAXIMIZE" else "MINIMIZE")

let print_session s =
  Printf.sprintf "%d rows: %s" (Array.length s.table)
    (String.concat " | " (List.map (session_query s) s.steps))

let session_coeffs s =
  let db = db_of { rows = Array.to_list s.table; k = 1; bound = None; dir = NoObj } in
  (db, List.map (fun step -> Pb_core.Coeffs.make db (Parser.parse (session_query s step))) s.steps)

let front_warm_total () =
  Pb_obs.Metrics.counter_value (Pb_obs.Metrics.counter "pb_engine_lp_front_warm_total")

let sr_default db c =
  Engine.run_coeffs ~gov:(Pb_util.Gov.unlimited ())
    ~strategy:(Engine.Sketch_refine Pb_core.Sketch_refine.default_params)
    db c

(* A cold answer: the front's cache emptied first. *)
let sr_cold db c =
  Pb_core.Sketch_refine.forget_warm_fronts ();
  sr_default db c

let show_result (r : Engine.result) =
  Printf.sprintf "%s %s" (Engine.proof_to_string r.proof)
    (match r.objective with Some v -> string_of_float v | None -> "-")

(* The session runs once in order through the warm front, then query by
   query through a fresh cold front: objective and proof must agree, and
   every package must be valid (the package itself may be another
   optimal vertex's). *)
let prop_warm_front_matches_cold =
  QCheck.Test.make ~count:10 ~long_factor:5
    ~name:"sketch-refine warm LP front = a cold front per query"
    (QCheck.make ~print:print_session session_gen)
    (fun s ->
      let db, coeffs = session_coeffs s in
      Pb_core.Sketch_refine.forget_warm_fronts ();
      let hits0 = front_warm_total () in
      let warm = List.map (sr_default db) coeffs in
      let hits = front_warm_total () - hits0 in
      let cold = List.map (sr_cold db) coeffs in
      if hits <> List.length coeffs - 1 then
        QCheck.Test.fail_reportf "%d warm fronts in a session of %d queries" hits
          (List.length coeffs);
      List.iteri
        (fun i ((c : Pb_core.Coeffs.t), ((w : Engine.result), (k : Engine.result))) ->
          (match w.package with
          | Some pkg when not (Pb_core.Coeffs.check c pkg) ->
              QCheck.Test.fail_reportf "query %d: warm package violates a constraint" i
          | _ -> ());
          if w.proof <> k.proof || not (objectives_agree w k) then
            QCheck.Test.fail_reportf "query %d: warm %s, cold %s" i (show_result w)
              (show_result k);
          (* Both LPs end on an optimal basis, whose bound is the LP
             optimum. *)
          let lp_bound (r : Engine.result) = List.assoc_opt "lp_bound" r.stats in
          if lp_bound w <> lp_bound k then
            QCheck.Test.fail_reportf "query %d: warm LP bound %s, cold %s" i
              (Option.value ~default:"-" (lp_bound w))
              (Option.value ~default:"-" (lp_bound k)))
        (List.combine coeffs (List.combine warm cold));
      true)

(* Two domains run queries of one LP at once, so they contend for the
   same cached state: a state is checked out to one query at a time,
   and every answer must equal its cold one. *)
let test_warm_front_concurrent () =
  let rng = Random.State.make [| 19 |] in
  let s =
    {
      table = Array.init 3000 (fun _ -> (1 + Random.State.int rng 50, Random.State.int rng 200));
      steps = List.init 12 (fun i -> (1 + (i mod 4), 3 + (i mod 4), 20 + (11 * i)));
      smax = true;
    }
  in
  let db, coeffs = session_coeffs s in
  let coeffs = Array.of_list coeffs in
  let cold = Array.map (sr_cold db) coeffs in
  let run_all order () =
    List.map
      (fun i ->
        let out =
          Pb_par.Pool.with_pool 1 (fun pool ->
              Pb_core.Sketch_refine.search ~params:Pb_core.Sketch_refine.default_params ~pool
                ~gov:(Pb_util.Gov.unlimited ()) coeffs.(i))
        in
        (i, out))
      order
  in
  let order = List.init (Array.length coeffs) Fun.id in
  let answers =
    List.concat_map Domain.join
      [
        Domain.spawn (run_all (order @ order));
        Domain.spawn (run_all (List.rev order @ List.rev order));
      ]
  in
  List.iter
    (fun (i, (out : Pb_core.Sketch_refine.outcome)) ->
      let k = cold.(i) in
      let label = Printf.sprintf "query %d" i in
      (match out.best with
      | Some pkg ->
          Alcotest.(check bool) (label ^ ": package valid") true (Pb_core.Coeffs.check coeffs.(i) pkg)
      | None -> ());
      Alcotest.(check bool) (label ^ ": proven like the cold run") (k.proof <> Engine.Feasible)
        out.proven_optimal;
      Alcotest.(check bool) (label ^ ": package iff the cold run has one") (k.package <> None)
        (out.best <> None);
      Alcotest.(check (option string))
        (label ^ ": LP bound") (List.assoc_opt "lp_bound" k.stats)
        (Option.map (Printf.sprintf "%.9g") out.lp_bound);
      match (out.best_objective, k.objective) with
      | Some w, Some c -> Alcotest.(check (float 1e-6)) (label ^ ": objective") c w
      | _ -> ())
    answers

(* ---- compiled expression evaluation vs the interpreter ---------------- *)

(* Random expressions over a schema with qualified columns (so suffix and
   ambiguity resolution are exercised) evaluated against rows — and groups
   of rows — of random, deliberately ill-typed values: the compiled
   closures must reproduce the tree-walking interpreter of [Oracle] bit
   for bit, including NULL propagation, Eval_error/Failure messages, and
   which exception surfaces when several subexpressions would raise. *)

module Compile = Pb_sql.Compile
module Sql_ast = Pb_sql.Ast

let expr_schema =
  Schema.make
    [
      { Schema.name = "r.id"; ty = Value.T_int };
      { Schema.name = "r.a"; ty = Value.T_int };
      { Schema.name = "s.a"; ty = Value.T_float };
      { Schema.name = "name"; ty = Value.T_str };
      { Schema.name = "flag"; ty = Value.T_bool };
      { Schema.name = "x"; ty = Value.T_float };
    ]

(* "id" resolves by suffix, "a" is ambiguous (r.a vs s.a), "missing" is
   unknown, "NAME" checks case-insensitivity. *)
let col_gen =
  Gen.oneofl
    [ "r.id"; "id"; "a"; "r.a"; "s.a"; "name"; "NAME"; "flag"; "x"; "missing" ]

let value_gen : Value.t Gen.t =
  let open Gen in
  frequency
    [
      (2, return Value.Null);
      (2, map (fun b -> Value.Bool b) bool);
      (4, map (fun i -> Value.Int i) (int_range (-5) 5));
      (3, map (fun f -> Value.Float f) (oneofl [ -2.5; -1.0; 0.0; 0.5; 1.0; 3.0 ]));
      (3, map (fun s -> Value.Str s) (string_size ~gen:(oneofl [ 'a'; 'b'; '%' ]) (int_range 0 3)));
    ]

let like_pattern_gen =
  Gen.string_size ~gen:(Gen.oneofl [ 'a'; 'b'; '%'; '_' ]) (Gen.int_range 0 6)

let binop_gen : Sql_ast.binop Gen.t =
  Gen.oneofl
    [
      Sql_ast.Add; Sql_ast.Sub; Sql_ast.Mul; Sql_ast.Div; Sql_ast.Eq;
      Sql_ast.Neq; Sql_ast.Lt; Sql_ast.Le; Sql_ast.Gt; Sql_ast.Ge;
      Sql_ast.And; Sql_ast.Or;
    ]

let func_name_gen =
  Gen.oneofl
    [ "abs"; "lower"; "upper"; "length"; "round"; "floor"; "ceil"; "coalesce";
      "sqrt"; "bogus" ]

(* A subquery no property run can answer: there is no database, so both
   evaluators must raise the same "requires a database context" error,
   and only when the node is evaluated. *)
let subquery = Pb_sql.Parser.parse_select "SELECT id FROM t"

(* [agg sub] generates the aggregate nodes: a fixed one for row
   expressions (where any aggregate must raise), any shape for group
   expressions. *)
let expr_gen_with ~(agg : Sql_ast.expr Gen.t -> Sql_ast.expr Gen.t) :
    Sql_ast.expr Gen.t =
  let open Gen in
  sized (fun size ->
      fix
        (fun self n ->
          let leaf =
            oneof
              [
                map (fun v -> Sql_ast.Lit v) value_gen;
                map (fun c -> Sql_ast.Col c) col_gen;
              ]
          in
          if n <= 0 then leaf
          else
            let sub = self (n / 2) in
            frequency
              [
                (2, leaf);
                (1, map (fun e -> Sql_ast.Unary_minus e) sub);
                (1, map (fun e -> Sql_ast.Not e) sub);
                ( 3,
                  map3 (fun op a b -> Sql_ast.Binop (op, a, b)) binop_gen sub sub
                );
                ( 1,
                  map3
                    (fun a b c -> Sql_ast.Between (a, b, c))
                    sub sub sub );
                ( 1,
                  map3
                    (fun e items neg -> Sql_ast.In_list (e, items, neg))
                    sub
                    (list_size (int_range 0 3) sub)
                    bool );
                (1, map2 (fun e neg -> Sql_ast.Is_null (e, neg)) sub bool);
                ( 1,
                  map3
                    (fun e pat neg -> Sql_ast.Like (e, pat, neg))
                    sub like_pattern_gen bool );
                ( 1,
                  map2
                    (fun name args -> Sql_ast.Func (name, args))
                    func_name_gen
                    (list_size (int_range 0 3) sub) );
                ( 1,
                  map2
                    (fun branches default -> Sql_ast.Case (branches, default))
                    (list_size (int_range 1 2) (pair sub sub))
                    (opt sub) );
                ( 1,
                  oneof
                    [
                      map2
                        (fun e neg -> Sql_ast.In_query (e, subquery, neg))
                        sub bool;
                      return (Sql_ast.Exists subquery);
                    ] );
                (2, agg sub);
              ])
        (min size 5))

(* an aggregate outside GROUP must raise identically *)
let expr_gen =
  expr_gen_with ~agg:(fun _ ->
      Gen.return (Sql_ast.Agg (Sql_ast.Sum, Some (Sql_ast.Col "x"))))

let group_expr_gen =
  expr_gen_with ~agg:(fun sub ->
      let open Gen in
      frequency
        [
          (2, return (Sql_ast.Agg (Sql_ast.Count_star, None)));
          ( 6,
            map2
              (fun f arg -> Sql_ast.Agg (f, Some arg))
              (oneofl
                 Sql_ast.[ Count; Sum; Avg; Min; Max ])
              sub );
          (* no argument: raises when evaluated *)
          (1, return (Sql_ast.Agg (Sql_ast.Sum, None)));
          (* an aggregate in a CASE branch that is not taken is never
             reduced: SUM over the string column would raise *)
          ( 2,
            map
              (fun default ->
                Sql_ast.Case
                  ( [
                      ( Sql_ast.Lit (Value.Bool false),
                        Sql_ast.Agg (Sql_ast.Sum, Some (Sql_ast.Col "name")) );
                    ],
                    Some default ))
              sub );
        ])

let row_gen = Gen.array_size (Gen.return 6) value_gen

let case_gen = Gen.pair expr_gen (Gen.list_size (Gen.int_range 1 4) row_gen)

let print_case (e, rows) =
  Printf.sprintf "%s over [%s]"
    (Sql_ast.expr_to_string e)
    (String.concat "; "
       (List.map
          (fun row ->
            "[|"
            ^ String.concat ","
                (Array.to_list
                   (Array.map
                      (fun v ->
                        match (v : Value.t) with
                        | Value.Null -> "NULL"
                        | Value.Str s -> Printf.sprintf "%S" s
                        | v -> Value.to_string v)
                      row))
            ^ "|]")
          rows))

let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let outcome_to_string = function
  | Ok v -> "Ok " ^ Value.to_string (v : Value.t)
  | Error msg -> "Error " ^ msg

let prop_compiled_eq_interpreted =
  QCheck.Test.make ~count:500 ~long_factor:10
    ~name:"compiled expression == interpreter"
    (QCheck.make ~print:print_case case_gen)
    (fun (e, rows) ->
      let compiled = Compile.expr expr_schema e in
      List.for_all
        (fun row ->
          let reference = outcome (fun () -> Oracle.eval_expr expr_schema row e) in
          let got = outcome (fun () -> compiled row) in
          let same =
            match (reference, got) with
            | Ok a, Ok b -> Stdlib.compare a b = 0
            | Error a, Error b -> a = b
            | _ -> false
          in
          if same then true
          else
            QCheck.Test.fail_reportf "interpreter=%s compiled=%s on %s"
              (outcome_to_string reference) (outcome_to_string got)
              (print_case (e, [ row ])))
        rows)

(* Groups of 0-4 rows, so empty groups (COUNT( * ) = 0, everything else
   NULL, columns read an all-NULL row) are common. *)
let group_case_gen =
  Gen.pair group_expr_gen (Gen.list_size (Gen.int_range 0 4) row_gen)

let prop_group_compiled_eq_interpreted =
  QCheck.Test.make ~count:500 ~long_factor:10
    ~name:"compiled group expression == interpreter"
    (QCheck.make ~print:print_case group_case_gen)
    (fun (e, group) ->
      let reference = outcome (fun () -> Oracle.eval_agg_expr expr_schema group e) in
      let got =
        outcome (fun () -> Compile.group expr_schema e (Array.of_list group))
      in
      let same =
        match (reference, got) with
        | Ok a, Ok b -> Stdlib.compare a b = 0
        | Error a, Error b -> a = b
        | _ -> false
      in
      same
      || QCheck.Test.fail_reportf "interpreter=%s compiled=%s on %s"
           (outcome_to_string reference) (outcome_to_string got)
           (print_case (e, group)))

(* The tokenized LIKE matcher used by compiled closures vs the reference
   two-pointer matcher, over patterns dense in % and _ edge shapes. *)
let prop_like_compiled =
  QCheck.Test.make ~count:1000 ~name:"compiled LIKE == reference matcher"
    (QCheck.make
       ~print:(fun (p, s) -> Printf.sprintf "pattern=%S subject=%S" p s)
       (Gen.pair
          (Gen.string_size ~gen:(Gen.oneofl [ 'a'; 'b'; '%'; '_' ]) (Gen.int_range 0 8))
          (Gen.string_size ~gen:(Gen.oneofl [ 'a'; 'b'; 'c' ]) (Gen.int_range 0 8))))
    (fun (pattern, s) ->
      Compile.like_match_compiled (Compile.compile_like pattern) s
      = Oracle.like_match ~pattern s)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_ilp; prop_sqlgen; prop_pruning; prop_local_search; prop_hybrid;
      prop_gov_never_better;
      prop_sketch_refine_valid; prop_sketch_refine_gap;
      prop_pipeline_valid; prop_pipeline_gap; prop_search_finds_a_package;
      prop_front_matches_ilp; prop_front_refuses_decoys; prop_warm_front_matches_cold;
      prop_compiled_eq_interpreted; prop_group_compiled_eq_interpreted;
      prop_like_compiled;
    ]
  @ [
      Alcotest.test_case "warm LP front under two domains = cold answers" `Quick
        test_warm_front_concurrent;
    ]
