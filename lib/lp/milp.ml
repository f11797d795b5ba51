module Trace = Pb_obs.Trace
module Metrics = Pb_obs.Metrics
module Progress = Pb_obs.Progress
module Gov = Pb_util.Gov

let m_bb_nodes =
  Metrics.counter ~help:"Branch-and-bound nodes explored"
    "pb_milp_nodes_total"

let m_incumbents =
  Metrics.counter ~help:"Incumbent (best integral point) updates"
    "pb_milp_incumbent_updates_total"

let m_solves =
  Metrics.counter ~help:"MILP solves started" "pb_milp_solves_total"

type status = Optimal | Feasible | Infeasible | Unbounded

type solution = {
  status : status;
  x : float array;
  objective : float;
  nodes : int;
  lp_iterations : int;
}

type node_order = Dfs | Best_bound

(* A node is a set of tightened bounds layered over the base model,
   carrying its parent's relaxation bound for best-first selection and
   its parent's optimal basis for the warm re-solve. *)
type node = {
  nbounds : (int * float * float) list;
  depth : int;
  parent_bound : float;  (* in maximization sense *)
  parent : int;  (* id of the node whose LP produced [snapshot]; -1 at the root *)
  snapshot : Simplex.basis option;
}

let fractional_part x = Float.abs (x -. Float.round x)

let most_fractional model ~eps x =
  let best = ref (-1) and best_frac = ref eps in
  for i = 0 to Array.length x - 1 do
    if Model.is_integer model i then begin
      let f = fractional_part x.(i) in
      if f > !best_frac then begin
        best_frac := f;
        best := i
      end
    end
  done;
  !best

(* Try to turn an LP point into an integral feasible point by rounding
   each integer variable both ways greedily. The candidate is written into
   [into], a buffer the caller owns; returns whether it is feasible. *)
let rounding_heuristic model ~eps ~into x =
  let n = Array.length x in
  Array.blit x 0 into 0 n;
  for i = 0 to n - 1 do
    if Model.is_integer model i then begin
      let r = Float.round into.(i) in
      (* Clamp onto the integer lattice inside the bounds. *)
      let r =
        Float.max
          (Float.ceil (Model.lower model i))
          (Float.min (Float.floor (Model.upper model i)) r)
      in
      into.(i) <- r
    end
  done;
  (* The feasibility tolerance here must stay below any strict-
     inequality epsilon a translator bakes into the rhs (pb_core uses
     1e-6), or rounding could admit points that violate a strict
     constraint by exactly that margin. *)
  Model.check_feasible ~eps:1e-7 model into
  && Model.check_integral ~eps model into

let maximization_sense model =
  match Model.objective model with
  | Model.Maximize _ -> true
  | Model.Minimize _ -> false

let rec solve_impl ~gov ?(eps = 1e-6) ?(node_order = Dfs) ?(presolve = false)
    model =
  if presolve then
    match Presolve.presolve model with
    | Presolve.Proven_infeasible ->
        {
          status = Infeasible;
          x = [||];
          objective = nan;
          nodes = 0;
          lp_iterations = 0;
        }
    | Presolve.Reduced { model = reduced; _ } ->
        solve_impl ~gov ~eps ~node_order ~presolve:false reduced
  else
  let n = Model.num_vars model in
  let saved_bounds = Array.init n (Model.bounds model) in
  let restore () =
    Array.iteri (fun i (lo, hi) -> Model.set_bounds model i lo hi) saved_bounds
  in
  let maximize = maximization_sense model in
  let better a b = if maximize then a > b +. 1e-9 else a < b -. 1e-9 in
  let incumbent = ref None in
  let incumbent_obj = ref (if maximize then neg_infinity else infinity) in
  let nodes_explored = ref 0 in
  let lp_iterations = ref 0 in
  let saw_unbounded = ref false in
  let budget_hit = ref false in
  let apply node =
    restore ();
    (* nbounds is child-first; apply ancestors before descendants so the
       tightest (deepest) bound on a re-branched variable wins. *)
    List.iter
      (fun (i, lo, hi) -> Model.set_bounds model i lo hi)
      (List.rev node.nbounds)
  in
  let root_bound = if maximize then infinity else neg_infinity in
  let stack =
    ref
      [
        {
          nbounds = [];
          depth = 0;
          parent_bound = root_bound;
          parent = -1;
          snapshot = None;
        };
      ]
  in
  (* One working tableau for the whole search. [live] is the id of the
     node whose LP it last solved: a child of that node re-solves in
     place, any other node first refactors its parent's snapshot. *)
  let lp = ref None and live = ref (-1) in
  let rounded = Array.make n 0.0 in
  (* [bound] is the current node's relaxation objective; the global dual
     bound reported to the progress stream also folds in every node
     still awaiting exploration, so it is monotone (non-increasing when
     maximizing) even as the stack drains. *)
  let record ~bound x =
    let obj = Model.objective_value model x in
    if better obj !incumbent_obj then begin
      incumbent := Some (Array.copy x);
      incumbent_obj := obj;
      Metrics.incr m_incumbents;
      let global_bound =
        List.fold_left
          (fun acc n ->
            if maximize then Float.max acc n.parent_bound
            else Float.min acc n.parent_bound)
          bound !stack
      in
      Progress.incumbent ~key:(Gov.family_id gov) ~strategy:"ilp"
        ~bound:global_bound ~nodes:!nodes_explored obj
    end
  in
  (* Pop according to the node order: head for DFS, best parent bound for
     best-first (maximization sense; parent_bound is already signed). *)
  let pop () =
    match (node_order, !stack) with
    | _, [] -> None
    | Dfs, node :: rest ->
        stack := rest;
        Some node
    | Best_bound, first :: _ ->
        let better_bound a b =
          if maximize then a.parent_bound > b.parent_bound
          else a.parent_bound < b.parent_bound
        in
        let best =
          List.fold_left
            (fun acc node -> if better_bound node acc then node else acc)
            first !stack
        in
        stack := List.filter (fun node -> node != best) !stack;
        Some best
  in
  while !stack <> [] && (not !budget_hit) do
    match pop () with
    | None -> ()
    | Some node ->
        (* One governance poll per node pop: cancellation/deadline stop
           the whole solve, the node budget stops just this strategy;
           either way the best incumbent found so far is returned with
           [Feasible] rather than a proof claim. *)
        if Gov.check ~resource:Gov.Milp_nodes gov <> None then
          budget_hit := true
        else begin
          incr nodes_explored;
          Gov.spend gov Gov.Milp_nodes 1;
          Metrics.incr m_bb_nodes;
          apply node;
          let id = !nodes_explored in
          let relax =
            match !lp with
            | None ->
                let st, sol = Simplex.start model in
                lp := Some st;
                sol
            | Some st ->
                if node.parent = !live then Simplex.resolve st
                else Simplex.resolve ?from:node.snapshot st
          in
          live := id;
          lp_iterations := !lp_iterations + relax.iterations;
          match relax.status with
          | Simplex.Infeasible -> ()
          | Simplex.Iteration_limit -> budget_hit := true
          | Simplex.Unbounded ->
              (* An unbounded relaxation at the root means the MILP is
                 unbounded or infeasible; deeper down we conservatively
                 treat it the same way. *)
              saw_unbounded := true;
              budget_hit := true
          | Simplex.Optimal ->
              let bound = relax.objective in
              let dominated =
                !incumbent <> None && not (better bound !incumbent_obj)
              in
              if not dominated then begin
                let branch_var = most_fractional model ~eps relax.x in
                (* An "integral within tolerance" point must be snapped to
                   the lattice and re-verified: the snapped point can
                   violate a strict-inequality row by its epsilon (the
                   relaxation answered e.g. x = 0.9999997 to stay inside
                   rhs - 1e-6). When the snap is infeasible, branch on the
                   least-integral variable instead of recording. *)
                let branch_var =
                  if branch_var >= 0 then branch_var
                  else if rounding_heuristic model ~eps ~into:rounded relax.x
                  then begin
                    record ~bound rounded;
                    -1
                  end
                  else most_fractional model ~eps:1e-12 relax.x
                in
                if branch_var < 0 then ()
                else begin
                  if rounding_heuristic model ~eps ~into:rounded relax.x then
                    record ~bound rounded;
                  let v = relax.x.(branch_var) in
                  let lo, hi = Model.bounds model branch_var in
                  let fl = Float.floor v and ce = Float.ceil v in
                  let snapshot = Option.map Simplex.basis !lp in
                  (* Children with an empty domain are dropped outright. *)
                  let child lo hi =
                    {
                      nbounds = (branch_var, lo, hi) :: node.nbounds;
                      depth = node.depth + 1;
                      parent_bound = bound;
                      parent = id;
                      snapshot;
                    }
                  in
                  let down = if fl < lo then [] else [ child lo fl ] in
                  let up = if ce > hi then [] else [ child ce hi ] in
                  (* Explore the rounding-preferred side first. *)
                  if v -. fl > 0.5 then stack := up @ down @ !stack
                  else stack := down @ up @ !stack
                end
              end
        end
  done;
  restore ();
  (match !lp with
  | Some st ->
      let s = Simplex.stats st in
      Trace.add_count "lp_warm" s.warm_solves;
      Trace.add_count "lp_refactors" s.refactors;
      Trace.add_count "lp_cold_fallbacks" s.cold_fallbacks
  | None -> ());
  let nodes = !nodes_explored and lp_iterations = !lp_iterations in
  match !incumbent with
  | Some x ->
      {
        status = (if !budget_hit then Feasible else Optimal);
        x;
        objective = !incumbent_obj;
        nodes;
        lp_iterations;
      }
  | None ->
      let status =
        if !saw_unbounded then Unbounded
        else if !budget_hit then Feasible
        else Infeasible
      in
      { status; x = [||]; objective = nan; nodes; lp_iterations }

let solve ?gov ?eps ?node_order ?presolve model =
  let gov = match gov with Some g -> g | None -> Gov.create () in
  Trace.with_span ~name:"milp.solve" (fun () ->
      Metrics.incr m_solves;
      let sol = solve_impl ~gov ?eps ?node_order ?presolve model in
      Trace.add_count "bb_nodes" sol.nodes;
      Trace.add_count "lp_pivots" sol.lp_iterations;
      sol)

let solve_all ?(max_solutions = 10) ?gov model =
  let n = Model.num_vars model in
  for i = 0 to n - 1 do
    if Model.is_integer model i then begin
      let lo, hi = Model.bounds model i in
      if not (lo >= -1e-9 && hi <= 1.0 +. 1e-9) then
        invalid_arg "Milp.solve_all: integer variables must be binary"
    end
  done;
  let added = ref 0 in
  let rec loop acc k =
    if k = 0 then List.rev acc
    else
      let sol = solve ?gov model in
      match sol.status with
      | Optimal | Feasible when Array.length sol.x > 0 ->
          (* No-good cut: sum of selected complements + unselected vars
             >= 1 excludes exactly this 0/1 point. *)
          let terms = ref [] and ones = ref 0 in
          for i = 0 to n - 1 do
            if Model.is_integer model i then
              if Float.round sol.x.(i) >= 0.5 then begin
                terms := (-1.0, i) :: !terms;
                incr ones
              end
              else terms := (1.0, i) :: !terms
          done;
          incr added;
          Model.add_constr model
            ~name:(Printf.sprintf "nogood%d" !added)
            !terms Model.Ge
            (1.0 -. float_of_int !ones);
          loop ((sol.x, sol.objective) :: acc) (k - 1)
      | _ -> List.rev acc
  in
  loop [] max_solutions
