module Ast = Pb_paql.Ast
module Package = Pb_paql.Package
module Semantics = Pb_paql.Semantics
module Milp = Pb_lp.Milp
module Trace = Pb_obs.Trace
module Metrics = Pb_obs.Metrics
module Progress = Pb_obs.Progress
module Pool = Pb_par.Pool
module Gov = Pb_util.Gov

(* Typed strategy counters. Each run bumps the process-wide metric and
   the enclosing span, and still renders the (key, value) pair into the
   report's display stats. *)
let m_runs =
  Metrics.counter ~help:"Strategy runs (hybrid legs counted individually)"
    "pb_engine_strategy_runs_total"

let m_candidates_examined =
  Metrics.counter ~help:"Brute-force candidate packages examined"
    "pb_engine_candidates_examined_total"

let m_ls_rounds =
  Metrics.counter ~help:"Local-search repair/improvement rounds"
    "pb_engine_local_search_rounds_total"

let m_ls_sql_queries =
  Metrics.counter ~help:"Local-search SQL neighbourhood queries issued"
    "pb_engine_local_search_sql_queries_total"

let m_ls_pairs =
  Metrics.counter ~help:"Local-search replacement moves examined"
    "pb_engine_local_search_pairs_total"

let m_sqlgen_queries =
  Metrics.counter ~help:"SQL-generation per-cardinality queries issued"
    "pb_engine_sqlgen_queries_total"

let m_pruning_cutoffs =
  Metrics.counter ~help:"Queries proven infeasible by cardinality bounds alone"
    "pb_engine_pruning_cutoffs_total"

let m_sr_partitions =
  Metrics.counter ~help:"Sketch-refine partitions built"
    "pb_engine_sketch_partitions_total"

let m_sr_refine_steps =
  Metrics.counter ~help:"Sketch-refine refine-leg MILPs solved"
    "pb_engine_sketch_refine_steps_total"

let m_verification_failures =
  Metrics.counter ~help:"Answers rejected by the semantic safety net"
    "pb_engine_verification_failures_total"

let stat_count ~key metric v =
  Metrics.incr ~by:v metric;
  Trace.add_count key v;
  (key, string_of_int v)

type strategy =
  | Brute_force of { use_pruning : bool }
  | Ilp
  | Local_search of Local_search.params
  | Sql_generation of Sql_generate.params
  | Sketch_refine of Sketch_refine.params
  | Hybrid

let strategy_name = function
  | Brute_force { use_pruning = true } -> "brute-force+pruning"
  | Brute_force { use_pruning = false } -> "brute-force"
  | Ilp -> "ilp"
  | Local_search _ -> "local-search"
  | Sql_generation _ -> "sql-generation"
  | Sketch_refine _ -> "sketch-refine"
  | Hybrid -> "hybrid"

type proof = Optimal | Feasible | Infeasible | Cancelled

let proof_to_string = function
  | Optimal -> "optimal"
  | Feasible -> "feasible"
  | Infeasible -> "infeasible"
  | Cancelled -> "cancelled"

type result = {
  package : Package.t option;
  objective : float option;
  proof : proof;
  strategy_used : string;
  elapsed : float;
  stats : (string * string) list;
  progress : Progress.event list;
      (* incumbent trajectory of this run, oldest first; kept out of
         [stats] because events carry wall-clock times while the stats
         fingerprint must stay bit-identical across runs and pool
         sizes *)
}

(* Internal per-strategy report; [proven_optimal] means "this answer is
   exact" (a proof of optimality when a package is present, a proof of
   infeasibility when none is).  The public [result] is derived from it
   plus the governance token's fate. *)
type report = {
  package : Package.t option;
  objective : float option;
  proven_optimal : bool;
  strategy_used : string;
  elapsed : float;
  stats : (string * string) list;
  anytime : bool;
      (* the strategy's governed-stop answer is a deliberate best-so-far
         incumbent (SketchRefine's serving contract): a deadline or
         cancellation that still yielded a package downgrades to
         [Feasible] instead of [Cancelled] *)
}

(* Final safety net: never hand the user a package the reference
   semantics rejects. *)
let verified db (c : Coeffs.t) report =
  match report.package with
  | None -> report
  | Some pkg ->
      if Semantics.is_valid ~db c.query pkg then report
      else begin
        Metrics.incr m_verification_failures;
        {
          report with
          package = None;
          objective = None;
          proven_optimal = false;
          stats = ("verification", "answer failed semantic check") :: report.stats;
        }
      end

let objective_of db (c : Coeffs.t) pkg =
  match c.query.objective with
  | None -> None
  | Some _ -> Semantics.objective_value ~db c.query pkg

let run_brute_force ~pool ~gov ~use_pruning (c : Coeffs.t) =
  let name = if use_pruning then "brute-force+pruning" else "brute-force" in
  let report, elapsed =
    Trace.timed
      ~name:("strategy." ^ name)
      ~attrs:[ ("candidates", string_of_int c.n) ]
      (fun () ->
        Metrics.incr m_runs;
        let out = Brute_force.search ~pool ~gov ~use_pruning c in
        {
          package = out.best;
          objective = out.best_objective;
          proven_optimal = out.complete;
          strategy_used = name;
          elapsed = 0.0;
          anytime = false;
          stats =
            [
              stat_count ~key:"candidates_examined" m_candidates_examined
                out.examined;
              ("complete", string_of_bool out.complete);
            ];
        })
  in
  { report with elapsed }

let run_ilp ~gov db (c : Coeffs.t) =
  let report, elapsed =
    Trace.timed ~name:"strategy.ilp"
      ~attrs:[ ("candidates", string_of_int c.n) ]
      (fun () ->
        Metrics.incr m_runs;
        if not (Translate.linearizable c) then
          let reason =
            match c.formula with
            | Error r -> r
            | Ok _ -> "objective is not linearizable"
          in
          {
            package = None;
            objective = None;
            proven_optimal = false;
            strategy_used = "ilp";
            elapsed = 0.0;
            anytime = false;
            stats = [ ("not_applicable", reason) ];
          }
        else begin
          let t = Translate.build c in
          let sol = Milp.solve ~gov t.model in
          let package, proven =
            match sol.status with
            | Milp.Optimal ->
                (Some (Translate.package_of_solution c t sol.x), true)
            | Milp.Feasible when Array.length sol.x > 0 ->
                (Some (Translate.package_of_solution c t sol.x), false)
            | Milp.Feasible | Milp.Unbounded -> (None, false)
            | Milp.Infeasible -> (None, true)
          in
          {
            package;
            objective = Option.map (fun _ -> sol.objective) package;
            proven_optimal = proven;
            strategy_used = "ilp";
            elapsed = 0.0;
            anytime = false;
            stats =
              [
                (* bb_nodes/lp_iterations are metered inside Pb_lp. *)
                ("bb_nodes", string_of_int sol.nodes);
                ("lp_iterations", string_of_int sol.lp_iterations);
                ( "milp_status",
                  match sol.status with
                  | Milp.Optimal -> "optimal"
                  | Milp.Feasible -> "feasible"
                  | Milp.Infeasible -> "infeasible"
                  | Milp.Unbounded -> "unbounded" );
              ];
          }
          |> fun report ->
          match report.package with
          | Some pkg -> { report with objective = objective_of db c pkg }
          | None -> report
        end)
  in
  { report with elapsed }

let run_local_search ~gov ~params db (c : Coeffs.t) =
  let report, elapsed =
    Trace.timed ~name:"strategy.local-search"
      ~attrs:[ ("candidates", string_of_int c.n) ]
      (fun () ->
        Metrics.incr m_runs;
        let out = Local_search.search ~params ~gov db c in
        let objective =
          match out.best with Some pkg -> objective_of db c pkg | None -> None
        in
        {
          package = out.best;
          objective;
          proven_optimal = false;
          strategy_used = "local-search";
          elapsed = 0.0;
          anytime = false;
          stats =
            [
              stat_count ~key:"rounds" m_ls_rounds out.stats.rounds;
              stat_count ~key:"sql_queries" m_ls_sql_queries
                out.stats.sql_queries;
              stat_count ~key:"pairs_examined" m_ls_pairs
                out.stats.pairs_examined;
              ("restarts", string_of_int out.stats.restarts_used);
            ];
        })
  in
  { report with elapsed }

let run_sql_generation ~gov ~params db (c : Coeffs.t) =
  let report, elapsed =
    Trace.timed ~name:"strategy.sql-generation"
      ~attrs:[ ("candidates", string_of_int c.n) ]
      (fun () ->
        Metrics.incr m_runs;
        let out = Sql_generate.search ~params ~gov db c in
        {
          package = out.Sql_generate.best;
          objective = out.Sql_generate.best_objective;
          (* The per-cardinality queries enumerate the pruned space
             exhaustively, so an applicable run is exact — including
             proving infeasibility. *)
          proven_optimal = out.Sql_generate.applicable;
          strategy_used = "sql-generation";
          elapsed = 0.0;
          anytime = false;
          stats =
            (stat_count ~key:"queries_issued" m_sqlgen_queries
               out.Sql_generate.queries_issued
            ::
            (if out.Sql_generate.applicable then []
             else [ ("not_applicable", out.Sql_generate.reason) ]));
        })
  in
  { report with elapsed }

let run_sketch_refine ~pool ~gov ~params db (c : Coeffs.t) =
  let report, elapsed =
    Trace.timed ~name:"strategy.sketch-refine"
      ~attrs:[ ("candidates", string_of_int c.n) ]
      (fun () ->
        Metrics.incr m_runs;
        let out = Sketch_refine.search ~params ~pool ~gov c in
        if not out.Sketch_refine.applicable then
          {
            package = None;
            objective = None;
            proven_optimal = false;
            strategy_used = "sketch-refine";
            elapsed = 0.0;
            anytime = false;
            stats = [ ("not_applicable", out.Sketch_refine.reason) ];
          }
        else
          let objective =
            match out.Sketch_refine.best with
            | Some pkg -> objective_of db c pkg
            | None -> None
          in
          {
            package = out.Sketch_refine.best;
            objective;
            proven_optimal = out.Sketch_refine.proven_optimal;
            strategy_used = "sketch-refine";
            elapsed = 0.0;
            anytime = true;
            stats =
              [
                stat_count ~key:"partitions" m_sr_partitions
                  out.Sketch_refine.partitions_built;
                stat_count ~key:"refine_steps" m_sr_refine_steps
                  out.Sketch_refine.refine_steps;
                ( "refined_partitions",
                  string_of_int out.Sketch_refine.refined_partitions );
                ( "stuck_partitions",
                  string_of_int out.Sketch_refine.stuck_partitions );
                ("sketch_status", out.Sketch_refine.sketch_status);
                ("front", out.Sketch_refine.front);
              ]
              @ (match out.Sketch_refine.lp_bound with
                | Some b -> [ ("lp_bound", Printf.sprintf "%.9g" b) ]
                | None -> [])
              @ (match out.Sketch_refine.bound with
                | Some b -> [ ("bound", Printf.sprintf "%.9g" b) ]
                | None -> [])
              @
              (match out.Sketch_refine.gap with
              | Some g -> [ ("gap", Printf.sprintf "%.9g" g) ]
              | None -> []);
          })
  in
  { report with elapsed }

let better_report (c : Coeffs.t) a b =
  match (a.package, b.package) with
  | _, None -> a
  | None, _ -> b
  | Some pa, Some pb ->
      if Pb_paql.Semantics.compare_quality c.query pa pb >= 0 then a else b

let run_hybrid ~pool ~gov db (c : Coeffs.t) =
  let tag report reason =
    { report with stats = ("hybrid_choice", reason) :: report.stats }
  in
  (* The chosen leg (and the local-search fallback leg, when the budget
     runs out) each time themselves through their own strategy span; the
     hybrid span wraps both, and the final report carries the combined
     wall clock so report.elapsed agrees with the span tree. *)
  let report, elapsed =
    Trace.timed ~name:"strategy.hybrid"
      ~attrs:[ ("candidates", string_of_int c.n) ]
      (fun () ->
        if Cost_model.proven_infeasible c then begin
          Metrics.incr m_pruning_cutoffs;
          Trace.add_count "pruning_cutoffs" 1;
          {
            package = None;
            objective = None;
            proven_optimal = true;
            strategy_used = "hybrid(pruning)";
            elapsed = 0.0;
            anytime = false;
            stats =
              [ ("hybrid_choice", "pruning bounds empty: proven infeasible") ];
          }
        end
        else begin
          (* Sec 5 "optimizing PaQL queries": choose by cost estimate
             rather than fixed thresholds. *)
          let choice = Cost_model.pick c in
          let reason =
            Printf.sprintf "cost model chose %s (%s)"
              choice.Cost_model.strategy_label choice.Cost_model.note
          in
          (* One path at every pool size: the chosen leg runs alone on
             the calling domain.  Speculating with local search on a
             second domain does not pay: exact legs mostly prove
             optimality within budget, and the speculative leg's
             allocation stalls them in stop-the-world minor
             collections (DESIGN.md, "Hybrid is sequential"). *)
          let report =
            match choice.Cost_model.strategy_label with
            | "brute-force" -> run_brute_force ~pool ~gov ~use_pruning:false c
            | "brute-force+pruning" ->
                run_brute_force ~pool ~gov ~use_pruning:true c
            | "ilp" -> run_ilp ~gov db c
            | _ -> run_local_search ~gov ~params:Local_search.default_params db c
          in
          if
            choice.Cost_model.exact
            && (not report.proven_optimal)
            && Gov.fate gov = None
          then
            (* Budget ran out before a proof: keep the better of the
               partial answer and a local-search pass.  When the token
               itself stopped the leg (cancellation or deadline) the
               fallback would stop at its first poll too, so skip it. *)
            let ls =
              run_local_search ~gov ~params:Local_search.default_params db c
            in
            tag (better_report c report ls)
              (reason ^ "; budget exhausted, kept best of it and local-search")
          else tag report reason
        end)
  in
  { report with elapsed }

(* Candidate generation and coefficient extraction, under their own span
   so that traces account for them. *)
let coeffs db query =
  Trace.with_span ~name:"paql.coeffs" (fun () ->
      let c = Coeffs.make db query in
      Trace.add_count "candidates" c.n;
      c)

(* [make_coeffs] runs inside the engine.run span. *)
let run_with ?pool ?gov ?(strategy = Hybrid) db make_coeffs =
  let pool = match pool with Some p -> p | None -> Pool.get_default () in
  let gov = match gov with Some g -> g | None -> Gov.create () in
  (* Every run_* times itself through its strategy span, so the report's
     elapsed is the strategy's own wall clock (hybrid: both legs); the
     engine.run span around it additionally covers verification. The
     progress recorder is keyed by the token's family, so incumbents
     emitted under child tokens on pool domains (SketchRefine's refine
     legs) still land in this run's trajectory. *)
  let result, progress =
    Progress.with_recorder ~key:(Gov.family_id gov) (fun () ->
        Trace.with_span ~name:"engine.run" (fun () ->
            let c : Coeffs.t = make_coeffs () in
            let report =
              match strategy with
              | Brute_force { use_pruning } ->
                  run_brute_force ~pool ~gov ~use_pruning c
              | Ilp -> run_ilp ~gov db c
              | Local_search params -> run_local_search ~gov ~params db c
              | Sql_generation params -> run_sql_generation ~gov ~params db c
              | Sketch_refine params ->
                  run_sketch_refine ~pool ~gov ~params db c
              | Hybrid -> run_hybrid ~pool ~gov db c
            in
            let report = verified db c report in
            (* SketchRefine's MILPs poll child tokens only, so a stop
               that originated on the request token (pre-cancellation,
               its deadline) may not have latched on it yet — one
               boundary poll makes [fate] below reliable at any pool
               size. *)
            ignore (Gov.refresh gov);
            let proof =
              match Gov.fate gov with
              | Some _ when report.anytime && report.package <> None ->
                  (* Anytime strategies treat a governed stop with an
                     incumbent in hand as a legitimate best-so-far
                     answer: Feasible, with ("stopped", reason) in the
                     stats recording why refinement ended early. *)
                  Feasible
              | Some _ -> Cancelled
              | None -> (
                  if not report.proven_optimal then Feasible
                  else
                    match report.package with
                    | Some _ -> Optimal
                    | None -> Infeasible)
            in
            let stats =
              match Gov.fate gov with
              | Some r -> ("stopped", Gov.reason_to_string r) :: report.stats
              | None -> report.stats
            in
            {
              package = report.package;
              objective = report.objective;
              proof;
              strategy_used = report.strategy_used;
              elapsed = report.elapsed;
              stats;
              progress = [];
            }))
  in
  { result with progress }

let run_coeffs ?pool ?gov ?strategy db c =
  run_with ?pool ?gov ?strategy db (fun () -> c)

let run ?pool ?gov ?strategy db query =
  run_with ?pool ?gov ?strategy db (fun () -> coeffs db query)

let next_packages ?gov ?(limit = 5) db query =
  let c = coeffs db query in
  if Translate.linearizable c && c.max_mult = 1 then begin
    let t = Translate.build c in
    let rec loop acc k =
      if k = 0 then List.rev acc
      else
        let sol = Milp.solve ?gov t.model in
        match sol.status with
        | Milp.Optimal | Milp.Feasible when Array.length sol.x > 0 ->
            let pkg = Translate.package_of_solution c t sol.x in
            if not (Semantics.is_valid ~db query pkg) then List.rev acc
            else begin
              Translate.exclude t pkg;
              loop (pkg :: acc) (k - 1)
            end
        | _ -> List.rev acc
    in
    loop [] limit
  end
  else begin
    (* Enumeration fallback: collect valid packages and sort by quality. *)
    let all = Brute_force.enumerate_valid ~limit:50_000 c in
    let sorted =
      List.stable_sort
        (fun a b -> Semantics.compare_quality query b a)
        all
    in
    List.filteri (fun i _ -> i < limit) sorted
  end
