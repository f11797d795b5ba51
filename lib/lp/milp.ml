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

(* The open nodes. Depth-first pops the newest. Best-bound pops the node
   with the best parent bound, the newest among equals — the node a scan
   of the depth-first stack would pick — from a binary heap, so a pop
   costs O(log open) rather than a scan and a copy of every open node. *)
type frontier = {
  best_first : bool;
  maximize : bool;
  mutable stack : node list;  (* depth-first: newest first *)
  mutable heap : node array;  (* best-bound: heap order on [ranks_above] *)
  mutable seqs : int array;  (* push order of [heap]'s nodes *)
  mutable size : int;
  mutable next_seq : int;
}

let frontier node_order ~maximize root =
  let best_first = node_order = Best_bound in
  {
    best_first;
    maximize;
    stack = (if best_first then [] else [ root ]);
    heap = Array.make (if best_first then 64 else 0) root;
    seqs = Array.make (if best_first then 64 else 0) 0;
    size = (if best_first then 1 else 0);
    next_seq = 1;
  }

let ranks_above f i j =
  let bi = f.heap.(i).parent_bound and bj = f.heap.(j).parent_bound in
  (if f.maximize then bi > bj else bi < bj) || (bi = bj && f.seqs.(i) > f.seqs.(j))

let swap f i j =
  let n = f.heap.(i) and s = f.seqs.(i) in
  f.heap.(i) <- f.heap.(j);
  f.seqs.(i) <- f.seqs.(j);
  f.heap.(j) <- n;
  f.seqs.(j) <- s

let rec sift_up f i =
  if i > 0 then
    let p = (i - 1) / 2 in
    if ranks_above f i p then begin
      swap f i p;
      sift_up f p
    end

let rec sift_down f i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let top = if l < f.size && ranks_above f l i then l else i in
  let top = if r < f.size && ranks_above f r top then r else top in
  if top <> i then begin
    swap f i top;
    sift_down f top
  end

(* Push [nodes], first element newest — what prepending them to the
   depth-first stack means. *)
let push f nodes =
  if not f.best_first then f.stack <- nodes @ f.stack
  else
    List.iter
      (fun node ->
        if f.size = Array.length f.heap then begin
          f.heap <- Array.append f.heap (Array.make f.size node);
          f.seqs <- Array.append f.seqs (Array.make f.size 0)
        end;
        f.heap.(f.size) <- node;
        f.seqs.(f.size) <- f.next_seq;
        f.next_seq <- f.next_seq + 1;
        f.size <- f.size + 1;
        sift_up f (f.size - 1))
      (List.rev nodes)

let pop f =
  if not f.best_first then (
    match f.stack with
    | [] -> None
    | node :: rest ->
        f.stack <- rest;
        Some node)
  else if f.size = 0 then None
  else begin
    let top = f.heap.(0) in
    f.size <- f.size - 1;
    if f.size > 0 then begin
      f.heap.(0) <- f.heap.(f.size);
      f.seqs.(0) <- f.seqs.(f.size);
      sift_down f 0
    end;
    Some top
  end

let is_empty f = if f.best_first then f.size = 0 else f.stack = []

let fold_open f g init =
  if not f.best_first then List.fold_left g init f.stack
  else begin
    let acc = ref init in
    for i = 0 to f.size - 1 do
      acc := g !acc f.heap.(i)
    done;
    !acc
  end

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

let solve_impl ~gov ?(eps = 1e-6) ?(node_order = Dfs) model =
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
  let open_nodes =
    frontier node_order ~maximize
      { nbounds = []; depth = 0; parent_bound = root_bound; parent = -1; snapshot = None }
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
        fold_open open_nodes
          (fun acc n ->
            if maximize then Float.max acc n.parent_bound
            else Float.min acc n.parent_bound)
          bound
      in
      Progress.incumbent ~key:(Gov.family_id gov) ~strategy:"ilp"
        ~bound:global_bound ~nodes:!nodes_explored obj
    end
  in
  while (not (is_empty open_nodes)) && not !budget_hit do
    match pop open_nodes with
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
                  if v -. fl > 0.5 then push open_nodes (up @ down)
                  else push open_nodes (down @ up)
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

let solve ?gov ?eps ?node_order model =
  let gov = match gov with Some g -> g | None -> Gov.create () in
  Trace.with_span ~name:"milp.solve" (fun () ->
      Metrics.incr m_solves;
      let sol = solve_impl ~gov ?eps ?node_order model in
      Trace.add_count "bb_nodes" sol.nodes;
      Trace.add_count "lp_pivots" sol.lp_iterations;
      sol)
