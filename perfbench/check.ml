(* Answer oracles. Every PaQL package is re-validated against the
   reference semantics and its objective recomputed; every SQL read is
   compared with the same statement evaluated in-process by the row
   interpreter (PB_STORE=row), which shares no evaluation code with the
   columnar fast paths the program takes by default. *)

let objective_agrees ?(rel = 1e-6) a b =
  Float.abs (a -. b) <= rel *. Float.max 1.0 (Float.abs a)

(* Quality of an answer against a proven bound on the optimum, with the
   Pb_obs.Progress gap formula: 1 - |bound - objective| / max(1, |objective|). *)
let quality_vs ~bound objective =
  Float.max 0.0 (1.0 -. (Float.abs (bound -. objective) /. Float.max 1.0 (Float.abs objective)))

(* An in-process engine answer, judged against [best], the query's
   proven optimum from [Optima] ([None]: no valid package exists). A
   package must be valid and its objective the recomputed one; a claim
   of optimality must reach [best], and a claim of infeasibility needs
   [best = None]. Under a budget the engine may end with no package and
   no claim (proof Feasible): not wrong, but it scores quality 0. A
   cancelled run is a failure. *)
let engine_result ~db ~best ast (r : Pb_core.Engine.result) =
  match (r.package, best) with
  | None, Some _ -> r.proof = Pb_core.Engine.Feasible
  | None, None -> r.proof = Pb_core.Engine.Infeasible || r.proof = Pb_core.Engine.Feasible
  | Some _, None -> false
  | Some pkg, Some best -> (
      Pb_paql.Semantics.is_valid ~db ast pkg
      && r.proof <> Pb_core.Engine.Infeasible && r.proof <> Pb_core.Engine.Cancelled
      &&
      match (Pb_paql.Semantics.objective_value ~db ast pkg, r.objective) with
      | Some a, Some b ->
          objective_agrees a b && (r.proof <> Pb_core.Engine.Optimal || objective_agrees a best)
      | None, None -> ast.Pb_paql.Ast.objective = None
      | _ -> false)

(* Quality of an in-process answer against the proven optimum: a
   package scores by its distance from [best]; no package scores 1 when
   none exists and 0 otherwise. *)
let engine_quality ~best (r : Pb_core.Engine.result) =
  match (r.objective, best) with
  | _, None -> if r.package = None then 1.0 else 0.0
  | Some a, Some bound when r.package <> None -> quality_vs ~bound a
  | _ -> 0.0

(* Reference database for the server workloads: the same CSV, loaded by
   this process and evaluated with the row interpreter. *)
type oracle = {
  db : Pb_sql.Database.t;
  repl : Pb_shell.Repl.state;
  reads : (string, string) Hashtbl.t;  (** statement → expected body *)
  candidates : (string, Pb_paql.Ast.t * Pb_relation.Relation.t * (int, int) Hashtbl.t) Hashtbl.t;
  verdicts : (string * string, bool * float) Hashtbl.t;  (** (query, body) → ok, quality *)
  optima : (string, float option) Hashtbl.t;
}

let oracle csv_path =
  Pb_store.Mode.set Pb_store.Mode.Row;
  let db = Pb_sql.Database.create () in
  Pb_sql.Database.load_csv db ~name:"recipes" csv_path;
  { db; repl = Pb_shell.Repl.create db; reads = Hashtbl.create 64; candidates = Hashtbl.create 16;
    verdicts = Hashtbl.create 64; optima = Hashtbl.create 16 }

let expected_read o text =
  match Hashtbl.find_opt o.reads text with
  | Some e -> e
  | None ->
      let e = (Pb_shell.Repl.handle o.repl text).Pb_shell.Repl.output in
      Hashtbl.replace o.reads text e;
      e

let read_ok o text body = body = expected_read o text

let write_ok body = String.trim body = "1 row(s) affected"

let lines s = String.split_on_char '\n' s

let cells line = List.map String.trim (String.split_on_char '|' line)

(* The server renders a package as a table whose header names the
   package-alias-qualified columns, then "objective: v" and a strategy
   footer that says "(proven optimal)" when it is. Returns the ids, the
   objective and whether the server claimed a proof. *)
let parse_package_body body =
  match lines body with
  | header :: _ :: rest when Str_util.find header "|" <> None ->
      let cols = cells header in
      let id_col =
        let rec find i = function
          | [] -> None
          | c :: cs ->
              let n = String.length c in
              if n >= 3 && String.sub c (n - 3) 3 = ".id" then Some i else find (i + 1) cs
        in
        find 0 cols
      in
      let rec rows acc = function
        | l :: ls when String.length l > 2 && String.sub l 0 2 <> "--" -> rows (l :: acc) ls
        | ls -> (List.rev acc, ls)
      in
      let body_rows, tail = rows [] rest in
      let objective =
        List.find_map
          (fun l ->
            if String.length l > 11 && String.sub l 0 11 = "objective: " then
              float_of_string_opt (String.sub l 11 (String.length l - 11))
            else None)
          tail
      in
      let proven = List.exists (fun l -> Str_util.find l "(proven optimal)" <> None) tail in
      Option.map
        (fun i ->
          (List.filter_map (fun r -> int_of_string_opt (List.nth (cells r) i)) body_rows, objective, proven))
        id_col
  | _ -> None

(* The exact optimum of a query on the reference data: whole-relation
   ILP without budgets (the server workloads' PaQL queries have small
   candidate sets). [None] when no package exists. *)
let optimum o text ast =
  match Hashtbl.find_opt o.optima text with
  | Some v -> v
  | None ->
      let r = Pb_core.Engine.run ~gov:(Pb_util.Gov.unlimited ()) ~strategy:Pb_core.Engine.Ilp o.db ast in
      if r.Pb_core.Engine.proof <> Pb_core.Engine.Optimal && r.Pb_core.Engine.proof <> Pb_core.Engine.Infeasible
      then failwith ("reference optimum not proven for " ^ text);
      Hashtbl.replace o.optima text r.Pb_core.Engine.objective;
      r.Pb_core.Engine.objective

(* A PaQL answer from a server: the package must be valid on the
   reference data and its reported objective must be the recomputed one
   (the wire prints 6 significant digits); its quality is measured
   against the reference optimum. Returns (ok, quality). *)
let paql_body o text body =
  match Hashtbl.find_opt o.verdicts (text, body) with
  | Some v -> v
  | None ->
      let ast, cands, index_of_id =
        match Hashtbl.find_opt o.candidates text with
        | Some c -> c
        | None ->
            let ast = Pb_paql.Parser.parse text in
            let cands = Pb_paql.Semantics.candidates o.db ast in
            let id_pos = Pb_relation.Schema.index_of_exn (Pb_relation.Relation.schema cands)
                (ast.Pb_paql.Ast.input_alias ^ ".id") in
            let index_of_id = Hashtbl.create 256 in
            Array.iteri
              (fun i row ->
                match row.(id_pos) with
                | Pb_relation.Value.Int id -> Hashtbl.replace index_of_id id i
                | _ -> ())
              (Pb_relation.Relation.rows cands);
            Hashtbl.replace o.candidates text (ast, cands, index_of_id);
            (ast, cands, index_of_id)
      in
      let best = optimum o text ast in
      let verdict =
        if String.length body >= 16 && String.sub body 0 16 = "no valid package" then
          (* Only "(proven optimal)" claims infeasibility; otherwise the
             server simply found nothing within its budget. *)
          let claimed = Str_util.find body "(proven optimal)" <> None in
          if best = None then (true, 1.0) else (not claimed, 0.0)
        else
          match (parse_package_body body, best) with
          | None, _ | _, None -> (false, 0.0)
          | Some (ids, objective, _), Some bound -> (
              match List.map (Hashtbl.find index_of_id) ids with
              | exception Not_found -> (false, 0.0)
              | indices -> (
                  let pkg = Pb_paql.Package.of_indices cands ~alias:ast.Pb_paql.Ast.package_alias indices in
                  match (Pb_paql.Semantics.objective_value ~db:o.db ast pkg, objective) with
                  | Some a, Some b when Pb_paql.Semantics.is_valid ~db:o.db ast pkg && objective_agrees ~rel:1e-5 a b ->
                      (true, quality_vs ~bound a)
                  | _ -> (false, 0.0)))
      in
      Hashtbl.replace o.verdicts (text, body) verdict;
      verdict
