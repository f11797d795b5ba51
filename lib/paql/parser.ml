exception Parse_error of string

module Sql_parser = Pb_sql.Parser
module Lexer = Pb_sql.Lexer

let parse src =
  try
    let st = Sql_parser.state_of_tokens (Lexer.tokenize src) in
    Sql_parser.expect_keyword st "SELECT";
    Sql_parser.expect_keyword st "PACKAGE";
    Sql_parser.expect st Lexer.Lparen;
    let package_arg = Sql_parser.parse_identifier st in
    Sql_parser.expect st Lexer.Rparen;
    let package_alias =
      if Sql_parser.accept_keyword st "AS" then Sql_parser.parse_identifier st
      else "package"
    in
    Sql_parser.expect_keyword st "FROM";
    let input_relation = Sql_parser.parse_identifier st in
    let input_alias =
      ignore (Sql_parser.accept_keyword st "AS");
      match Sql_parser.peek st with
      | Lexer.Ident _ -> Sql_parser.parse_identifier st
      | _ -> input_relation
    in
    if String.lowercase_ascii package_arg <> String.lowercase_ascii input_alias
    then
      raise
        (Parse_error
           (Printf.sprintf
              "PACKAGE(%s) does not name the FROM alias %s" package_arg
              input_alias));
    let repeat =
      if Sql_parser.accept_keyword st "REPEAT" then
        match Sql_parser.advance st with
        | Lexer.Int_lit k when k >= 0 -> Some k
        | t ->
            raise
              (Parse_error
                 ("REPEAT expects a non-negative integer, got "
                ^ Lexer.token_to_string t))
      else None
    in
    let where =
      if Sql_parser.accept_keyword st "WHERE" then
        Some (Sql_parser.parse_expr_state st)
      else None
    in
    let such_that =
      if Sql_parser.accept_keyword st "SUCH" then begin
        Sql_parser.expect_keyword st "THAT";
        Some (Sql_parser.parse_expr_state st)
      end
      else None
    in
    let objective =
      if Sql_parser.accept_keyword st "MAXIMIZE" then
        Some (Ast.Maximize, Sql_parser.parse_expr_state st)
      else if Sql_parser.accept_keyword st "MINIMIZE" then
        Some (Ast.Minimize, Sql_parser.parse_expr_state st)
      else None
    in
    ignore (Sql_parser.accept st Lexer.Semicolon);
    if Sql_parser.peek st <> Lexer.Eof then
      Sql_parser.fail st "trailing input after PaQL query";
    {
      Ast.input_relation;
      input_alias = String.lowercase_ascii input_alias;
      package_alias = String.lowercase_ascii package_alias;
      repeat;
      where;
      such_that;
      objective;
    }
  with
  | Sql_parser.Parse_error msg -> raise (Parse_error msg)
  | Lexer.Lex_error (msg, pos) ->
      raise (Parse_error (Printf.sprintf "%s at offset %d" msg pos))
