type direction = Maximize | Minimize

type t = {
  input_relation : string;
  input_alias : string;
  package_alias : string;
  repeat : int option;
  where : Pb_sql.Ast.expr option;
  such_that : Pb_sql.Ast.expr option;
  objective : (direction * Pb_sql.Ast.expr) option;
}

let max_multiplicity q = 1 + Option.value q.repeat ~default:0

let to_string q =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "SELECT PACKAGE(%s) AS %s FROM %s %s" q.input_alias
       q.package_alias q.input_relation q.input_alias);
  (match q.repeat with
  | Some k -> Buffer.add_string buf (Printf.sprintf " REPEAT %d" k)
  | None -> ());
  (match q.where with
  | Some e -> Buffer.add_string buf (" WHERE " ^ Pb_sql.Ast.expr_to_string e)
  | None -> ());
  (match q.such_that with
  | Some e ->
      Buffer.add_string buf (" SUCH THAT " ^ Pb_sql.Ast.expr_to_string e)
  | None -> ());
  (match q.objective with
  | Some (Maximize, e) ->
      Buffer.add_string buf (" MAXIMIZE " ^ Pb_sql.Ast.expr_to_string e)
  | Some (Minimize, e) ->
      Buffer.add_string buf (" MINIMIZE " ^ Pb_sql.Ast.expr_to_string e)
  | None -> ());
  Buffer.contents buf
