module Ast = Pb_paql.Ast
module Package = Pb_paql.Package

type t = { query : Ast.t; sample : Package.t option }

let create db query =
  let result = Pb_core.Engine.run db query in
  { query; sample = result.Pb_core.Engine.package }

let render ?(show_summary = false) db t =
  let buf = Buffer.create 1024 in
  let section title = Buffer.add_string buf ("== " ^ title ^ " ==\n") in
  section "Sample package";
  (match t.sample with
  | Some pkg -> Buffer.add_string buf (Package.to_string pkg)
  | None -> Buffer.add_string buf "(no valid package for this query)\n");
  section "Base constraints (each tuple)";
  (match t.query.where with
  | None -> Buffer.add_string buf "(none)\n"
  | Some e ->
      Buffer.add_string buf ("  " ^ Pb_sql.Ast.expr_to_string e ^ "\n");
      List.iter
        (fun s -> Buffer.add_string buf ("  - " ^ s ^ "\n"))
        (Describe.describe_base ~input_alias:t.query.input_alias e));
  section "Global constraints (whole package)";
  (match t.query.such_that with
  | None -> Buffer.add_string buf "(none)\n"
  | Some e ->
      Buffer.add_string buf ("  " ^ Pb_sql.Ast.expr_to_string e ^ "\n");
      List.iter
        (fun s -> Buffer.add_string buf ("  - " ^ s ^ "\n"))
        (Describe.describe_global e));
  section "Objective";
  (match t.query.objective with
  | None -> Buffer.add_string buf "(none)\n"
  | Some ((dir, e) as obj) ->
      Buffer.add_string buf
        (Printf.sprintf "  %s %s\n"
           (match dir with Ast.Maximize -> "MAXIMIZE" | Ast.Minimize -> "MINIMIZE")
           (Pb_sql.Ast.expr_to_string e));
      Buffer.add_string buf ("  - " ^ Describe.describe_objective obj ^ "\n"));
  if show_summary then begin
    section "Result space";
    let summary = Summary.build ?current:t.sample db t.query in
    Buffer.add_string buf (Summary.render summary)
  end;
  Buffer.contents buf
